"""Byte-identity of CLI output against checked-in golden CSV files.

Each case runs one command on a small config and compares the rendered CSV
with ``tests/golden/<case>.csv`` byte for byte. Together the cases cover
``bound`` and ``verify`` for every family with every tag that applies to it,
the ``example41`` table with its sampled cross-checks, and an ``n`` sweep.
A refactor that changes any emitted digit fails here.

Regenerate (only when a change is meant to move rows, and record which rows
moved and why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import sys
from pathlib import Path

import pytest

from belab.cli import (
    cmd_bound,
    cmd_example41,
    cmd_sweep,
    cmd_verify,
    parse_config,
    render_rows,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GENERAL = ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6", "eq2.9"]
Z_GRID = [-2.0, 0.0, 1.0, 4.0]

MODELS = {
    "linear": ({"family": "linear", "dist": "rademacher", "n": 100}, GENERAL),
    "ustat": ({"family": "ustat", "kernel": "variance", "dist": "std_normal",
               "n": 30},
              GENERAL + ["eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"]),
    "multisample": ({"family": "multisample", "kernel": "wilcoxon",
                     "dist": "uniform01", "n": "40;30"},
                    GENERAL + ["eq3.7", "eq3.8"]),
    "lstat": ({"family": "lstat", "weight": "identity", "dist": "uniform01",
               "n": 40}, GENERAL + ["eq3.10", "eq3.11"]),
    "isqrt": ({"family": "isqrt", "epsilon": 0.05, "n": 100},
              [t for t in GENERAL if t not in ("eq2.6", "eq2.9")]),
}
COMMANDS = {"bound": cmd_bound, "verify": cmd_verify,
            "example41": cmd_example41, "sweep": cmd_sweep}


def _cases():
    cases = {}
    for family, (model, tags) in MODELS.items():
        for command in ("bound", "verify"):
            cases[f"{command}-{family}"] = (command, {
                "model": model, "bounds": tags, "z_grid": Z_GRID,
                "mc": {"master_seed": 7, "replicates": 3000},
            })
    cases["example41"] = ("example41", {
        "epsilon_grid": [1e-2, 1e-3],
        "mc": {"master_seed": 5, "replicates": 4000},
    })
    cases["sweep-n-lstat"] = ("sweep", {
        "model": {"family": "lstat", "weight": "identity",
                  "dist": "std_normal", "n": 40},
        "bounds": ["eq3.10", "eq3.11"],
        "z_grid": [0.0, 2.0],
        "sweep": {"axis": "n", "grid": [40, 80, 160]},
        "mc": {"master_seed": 3},
    })
    return cases


CASES = _cases()


def render_case(name: str) -> str:
    command, doc = CASES[name]
    rows, _notes = COMMANDS[command](parse_config(json.dumps(doc)))
    return render_rows(rows, "csv")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_byte_identical(name):
    want = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert render_case(name).encode("utf-8") == want


def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / f"{name}.csv").write_bytes(
            render_case(name).encode("utf-8"))
        print(f"wrote {name}.csv", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
