"""Layering of the library's imports, read from the source without running
it: the models use only the engine's public names and never the
application bounds, and nothing under src/ reaches into the tests."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "belab"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imports(path):
    """(line, absolute module, names) of each import statement in a belab
    module; `import a.b` gives the names ()."""
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    package = parts if path.name == "__init__.py" else parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = (package[:len(package) - node.level + 1] if node.level
                    else ())
            module = ".".join([*base, *filter(None, [node.module])])
            yield node.lineno, module, tuple(a.name for a in node.names)


def test_scan_covers_the_package():
    assert PACKAGE / "models" / "isqrt.py" in MODULES
    found = {m for _, m, _ in imports(PACKAGE / "models" / "ustat.py")}
    assert {"belab.bound_core", "belab.models.base"} <= found


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.parent.name == "models"],
                         ids=lambda p: p.name)
def test_models_import_no_private_engine_name(path):
    private = [f"{path.name}:{line}: {name}"
               for line, module, names in imports(path)
               if module == "belab.mc_engine"
               for name in names if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.parent.name == "models"],
                         ids=lambda p: p.name)
def test_models_import_no_application_bounds(path):
    # app_bounds imports the models; the walk reaches imports inside
    # function bodies too
    found = [f"{path.name}:{line}: {module}"
             for line, module, names in imports(path)
             if module.split(".")[:2] == ["belab", "app_bounds"]
             or module == "belab" and "app_bounds" in names]
    assert found == []


def test_library_imports_nothing_from_tests():
    # the tests import their oracles as the top-level module `oracles`
    found = [f"{path.relative_to(PACKAGE)}:{line}: {module}"
             for path in MODULES for line, module, _ in imports(path)
             if module.split(".")[0] in ("tests", "oracles")]
    assert found == []
