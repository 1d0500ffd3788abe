"""Config fuzzing: any JSON value under any config key, through every command.

Every input must either run or fail with its documented exit code: 0, 1
(a judged row failed), 2 (config) or 3 (runtime). A traceback is never an
answer, and exit 1 only ever means that some emitted row has pass=false.

Replicate counts, thread counts and model sizes are drawn either small and
inside their domain or outside it, so an example stays fast and never asks
for many threads or a model too large to sample. The flags --seed,
--replicates and --threads are drawn the same way, absent, inside or
outside the domain of the field each sets; one outside it must fail with a
violation named after the flag.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from belab.cli import MAX_REPLICATES, MAX_THREADS, SWEEP_AXES, TAGS, main
from belab.models import DIST_CATALOG, FAMILIES, KERNEL_CATALOG, WEIGHT_CATALOG

COMMANDS = ("bound", "verify", "sweep", "example41")

BASE_MODELS = {
    "linear": {"family": "linear", "dist": "uniform01", "n": 8},
    "ustat": {"family": "ustat", "kernel": "variance", "dist": "std_normal",
              "n": 8},
    "multisample": {"family": "multisample", "kernel": "wilcoxon",
                    "dist": "uniform01", "n": "6;5"},
    "lstat": {"family": "lstat", "weight": "identity", "dist": "uniform01",
              "n": 8},
    "isqrt": {"family": "isqrt", "epsilon": 0.01, "n": 50},
}

json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True) | st.text())
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)

# anything but a number or an integral float: never a usable count or size
not_a_count = json_values.filter(
    lambda v: not isinstance(v, (int, float)) or isinstance(v, bool)
    or isinstance(v, float) and not v.is_integer())
out_of_domain_count = (st.integers(max_value=0) | not_a_count
                       | st.integers(MAX_REPLICATES + 1, 10 ** 400)
                       | st.floats(min_value=1.5e8, allow_infinity=True))


def count(low, high, bad=out_of_domain_count):
    return st.integers(low, high) | bad


names = lambda catalog: st.sampled_from(sorted(catalog)) | json_values
small_n = count(2, 40, st.integers(max_value=1) | not_a_count)
model_fields = {
    "family": names(FAMILIES),
    "dist": names(DIST_CATALOG),
    "kernel": names(set(KERNEL_CATALOG) | {"wilcoxon"}),
    "weight": names(WEIGHT_CATALOG),
    "epsilon": st.floats(0.0, 1.0) | json_values,
    "n": small_n | st.tuples(small_n, small_n).map(list)
    | st.tuples(small_n, small_n).map(lambda p: f"{p[0]};{p[1]}"),
    "m": small_n | st.tuples(small_n, small_n).map(list),
}
# grid values: small sizes and replicate counts, or values no axis accepts
# as a size or count; any float is a z or an epsilon
grid_value = (st.integers(-3, 60) | not_a_count
              | st.floats(allow_nan=True, allow_infinity=True).filter(
                  lambda v: not (v == v and abs(v) != float("inf")
                                 and v.is_integer() and abs(v) > 60)))
top_fields = {
    "model": json_values.filter(lambda v: not isinstance(v, dict)),
    "bounds": st.lists(st.sampled_from(sorted(TAGS)), max_size=4)
    | json_values,
    "z_grid": st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       max_size=3) | json_values,
    "epsilon_grid": st.lists(st.floats(allow_nan=True, allow_infinity=True),
                             max_size=3) | json_values,
    "p": st.floats(2.0, 3.0) | json_values,
    "mc": json_values.filter(lambda v: not isinstance(v, dict)),
    "mc.replicates": count(1, 1500),
    "mc.threads": count(1, 2, st.integers(max_value=0) | not_a_count
                        | st.integers(MAX_THREADS + 1, 10 ** 6)),
    "mc.master_seed": st.integers(-5, 2 ** 64) | json_values,
    "sweep": json_values.filter(lambda v: not isinstance(v, dict)),
    "sweep.axis": st.sampled_from(SWEEP_AXES) | json_values,
    "sweep.grid": st.lists(grid_value, max_size=3) | json_values,
    "output": json_values.filter(lambda v: not isinstance(v, dict)),
    "output.format": st.sampled_from(["csv", "json"]) | json_values,
    "output.path": json_values,
}
fields = {**top_fields, **{f"model.{k}": v for k, v in model_fields.items()}}

# each flag's domain; an in-domain replicate count is at most 1500, one
# chunk, so no example starts more than one worker whatever --threads says
FLAG_DOMAINS = {"--seed": range(2 ** 63),
                "--replicates": range(1, MAX_REPLICATES + 1),
                "--threads": range(1, MAX_THREADS + 1)}
flag_values = {
    "--seed": st.integers(0, 2 ** 63 - 1) | st.integers(max_value=-1)
    | st.integers(2 ** 63, 2 ** 70),
    "--replicates": st.integers(1, 1500) | st.integers(max_value=0)
    | st.integers(MAX_REPLICATES + 1, 10 ** 12),
    "--threads": st.integers(1, MAX_THREADS) | st.integers(max_value=0)
    | st.integers(MAX_THREADS + 1, 10 ** 6),
}


@st.composite
def configs(draw):
    family = draw(st.sampled_from(sorted(BASE_MODELS)))
    doc = {
        "model": dict(BASE_MODELS[family]),
        "bounds": [t for t, spec in TAGS.items() if family in spec.families],
        "z_grid": [-1.0, 2.0],
        "epsilon_grid": [0.01],
        "mc": {"master_seed": 3, "replicates": 1000},
        "sweep": {"axis": "n", "grid": [8, 9]},
    }
    for key in draw(st.lists(st.sampled_from(sorted(fields)), min_size=1,
                             max_size=4, unique=True)):
        head, _, tail = key.partition(".")
        value = draw(fields[key])
        if not tail:
            doc[head] = value
        elif isinstance(doc.get(head, {}), dict):
            doc.setdefault(head, {})[tail] = value
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), doc=configs(),
       flags=st.fixed_dictionaries({}, optional=flag_values))
def test_every_config_exits_with_a_documented_code(tmp_path, capsys,
                                                    command, doc, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "rows.json"
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(cfg), "--output", str(out),
            "--format", "json"]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3), (rc, err)
    assert "Traceback" not in err
    for flag, value in flags.items():
        if value not in FLAG_DOMAINS[flag]:
            assert rc == 2 and f"config: {flag}: " in err, (flag, value, err)
    if rc == 1:
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert any(row["pass"] is False for row in rows), rows
