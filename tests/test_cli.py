"""Config parsing, row emission, and end-to-end exit codes."""
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from belab import cli
from belab.cli import (
    MAX_REPLICATES,
    MAX_THREADS,
    RESULT_COLUMNS,
    ResultRow,
    cmd_bound,
    cmd_example41,
    cmd_sweep,
    cmd_verify,
    main,
    parse_config,
    render_rows,
)
from belab.errors import ConfigError, InvalidModelError
from belab.models import LStatModel, UStatModel, build_spec

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
USTAT = {"family": "ustat", "kernel": "variance", "dist": "std_normal",
         "n": 20}


def make_doc(**over):
    doc = {
        "model": {"family": "linear", "dist": "rademacher", "n": 100},
        "bounds": ["eq2.5"],
        "mc": {"master_seed": 11, "replicates": 2000},
    }
    doc.update(over)
    return doc


# a chunk of this model needs more bytes than numpy can index
HUGE_LINEAR = {"family": "linear", "dist": "rademacher", "n": 10 ** 17}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def parse(doc):
    return parse_config(json.dumps(doc))


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse(make_doc())
        assert cfg.model_desc["family"] == "linear"
        assert cfg.bounds == ("eq2.5",)
        assert cfg.p == 3.0
        assert cfg.replicates == 2000
        assert cfg.threads == 1
        assert cfg.master_seed == 11
        assert cfg.output_format == "csv"
        assert cfg.output_path is None

    def test_kind_alias(self):
        doc = make_doc(model={"kind": "linear", "dist": "std_normal", "n": 8})
        assert parse(doc).model_desc["family"] == "linear"

    def test_unknown_kernel_names_catalog(self):
        doc = make_doc(model={"family": "ustat", "kernel": "kendall",
                              "dist": "std_normal", "n": 30})
        with pytest.raises(ConfigError) as info:
            parse(doc)
        msg = "\n".join(info.value.violations)
        assert "model.kernel" in msg and "variance" in msg

    def test_missing_mc_block(self):
        doc = make_doc()
        del doc["mc"]
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert any("mc.master_seed" in v for v in info.value.violations)

    def test_seed_upper_limit(self):
        doc = make_doc(mc={"master_seed": 2 ** 63})
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert any("2^63" in v for v in info.value.violations)

    def test_collects_every_violation(self):
        doc = {
            "model": {"family": "linear", "dist": "triangular", "n": 100},
            "bounds": ["eq9.9", "eq2.6"],
            "p": 2.0,
        }
        with pytest.raises(ConfigError) as info:
            parse(doc)
        msg = "\n".join(info.value.violations)
        for needle in ("model.dist", "eq9.9", "p:", "mc.master_seed",
                       "z_grid"):
            assert needle in msg, needle

    def test_family_tag_mismatch(self):
        doc = make_doc(bounds=["eq3.1"])
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert any("does not apply" in v for v in info.value.violations)

    def test_isqrt_tag_exclusions(self):
        doc = make_doc(model={"family": "isqrt", "epsilon": 0.05, "n": 100},
                       bounds=["eq2.9"], z_grid=[1.0])
        with pytest.raises(ConfigError):
            parse(doc)
        doc["bounds"] = ["eq2.3"]
        parse(doc)

    def test_z_grid_requirement(self):
        doc = make_doc(bounds=["eq2.6"])
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert any("z_grid" in v for v in info.value.violations)
        doc["z_grid"] = [0.5, 2.0]
        assert parse(doc).z_grid == (0.5, 2.0)

    def test_multisample_size_forms(self):
        doc = make_doc(model={"family": "multisample", "kernel": "wilcoxon",
                              "dist": "uniform01", "n": "60;40"},
                       bounds=["eq3.7"])
        parse(doc)
        doc["model"]["n"] = [60]
        with pytest.raises(ConfigError):
            parse(doc)

    def test_every_missing_field_reported(self):
        doc = make_doc(model={"family": "ustat", "kernel": "variance"})
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert info.value.violations == ["model.dist: required",
                                         "model.n: required"]

    def test_sweep_checks_join_the_violation_list(self):
        doc = make_doc(p=1.0, sweep={"axis": "epsilon", "grid": [1e-3]})
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert info.value.violations == [
            "p: moment order must lie in (2, 3], got 1.0",
            "sweep.axis: epsilon sweeps need an isqrt model"]
        doc = make_doc(p=1.0, sweep={"axis": "n", "grid": []})
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert info.value.violations == [
            "p: moment order must lie in (2, 3], got 1.0",
            "sweep.grid: required"]

    def test_isqrt_requires_epsilon(self):
        doc = make_doc(model={"family": "isqrt", "n": 100}, bounds=["eq1.4"])
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert any("model.epsilon" in v for v in info.value.violations)

    def test_model_block_optional(self):
        # only the counterexample command can run without one
        cfg = parse({"epsilon_grid": [0.01], "mc": {"master_seed": 1}})
        assert cfg.model_desc == {}
        with pytest.raises(ConfigError):
            cmd_bound(cfg)

    def test_malformed_json(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{not json")
        assert any(v.startswith("json:") for v in info.value.violations)
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")

    def test_p_window(self):
        with pytest.raises(ConfigError):
            parse(make_doc(p=2.0))
        assert parse(make_doc(p=2.5)).p == 2.5

    def test_bad_sweep_axis(self):
        with pytest.raises(ConfigError) as info:
            parse(make_doc(sweep={"axis": "sigma", "grid": [1, 2]}))
        assert any("sweep.axis" in v for v in info.value.violations)

    def test_bad_output_format(self):
        with pytest.raises(ConfigError):
            parse(make_doc(output={"format": "xml"}))


class TestResultRow:
    def test_unknown_constant_forces_null_pass(self):
        with pytest.raises(ValueError):
            ResultRow(equation_tag="eq2.9", model="m", bound_known=0.1,
                      bound_c_coeff=0.5, pass_flag=True)
        row = ResultRow(equation_tag="eq2.9", model="m", bound_known=0.1,
                        bound_c_coeff=0.5, pass_flag=None)
        assert row.as_mapping()["pass"] is None

    def test_mapping_order(self):
        row = ResultRow(equation_tag="eq1.4", model="m", n=10)
        assert tuple(row.as_mapping()) == RESULT_COLUMNS


class TestCmdBound:
    def test_rademacher_eq25_closed_form(self):
        rows, notes = cmd_bound(parse(make_doc()))
        assert notes == []
        (row,) = rows
        # all cube terms: 100 * 0.1^3 = 0.1, scaled by the normal constant
        np.testing.assert_allclose(row.bound_known, 0.61, rtol=1e-12)
        assert row.bound_c_coeff == 0.0
        assert row.pass_flag is None and row.empirical is None
        assert row.se == 0.0

    def test_point_rows_one_per_z(self):
        doc = make_doc(bounds=["eq2.6"], z_grid=[0.5, 1.5, 3.0])
        rows, _ = cmd_bound(parse(doc))
        assert [r.z for r in rows] == [0.5, 1.5, 3.0]
        assert all(r.equation_tag == "eq2.6" for r in rows)

    def test_moment_tag_carries_p(self):
        doc = make_doc(bounds=["eq2.9"], z_grid=[1.0], p=2.5)
        (row,) = cmd_bound(parse(doc))[0]
        assert row.p == 2.5
        assert row.bound_c_coeff > 0.0
        assert row.pass_flag is None


class TestCmdVerify:
    def test_every_ustat_tag_runs_on_sum_rademacher(self, tmp_path, capsys):
        # the sum kernel's E|h|^p under rademacher is exact, so every
        # eq3.x tag has its inputs
        tags = ["eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"]
        path = write_config(tmp_path, make_doc(
            model={"family": "ustat", "kernel": "sum", "dist": "rademacher",
                   "n": 30},
            bounds=tags, z_grid=[0.0, 1.0]))
        for command in ("bound", "verify"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", path, "--output",
                         str(out)]) == 0
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert [r["equation_tag"] for r in rows] == [
                "eq3.1", "eq3.2"] + [t for t in tags[2:] for _z in (0, 1)]
        assert capsys.readouterr().err == ""

    def test_replicate_floor(self):
        doc = make_doc(mc={"master_seed": 1, "replicates": 500})
        with pytest.raises(ConfigError) as info:
            cmd_verify(parse(doc))
        assert any("1000" in v for v in info.value.violations)

    def test_linear_certification(self):
        rows, _ = cmd_verify(parse(make_doc()))
        (row,) = rows
        assert row.pass_flag is True
        assert 0.0 < row.empirical < 0.1
        assert row.dkw_radius is not None

    def test_moment_rows_stay_unjudged(self):
        doc = make_doc(bounds=["eq2.9"], z_grid=[1.0])
        (row,) = cmd_verify(parse(doc))[0]
        assert row.pass_flag is None
        assert row.empirical is not None


class TestRendering:
    def _rows(self):
        return [
            ResultRow(equation_tag="eq1.4", model="linear-rademacher",
                      n=100, bound_known=0.41, bound_c_coeff=0.0,
                      empirical=0.0397946186935894, dkw_radius=0.01,
                      se=0.0, pass_flag=True),
            ResultRow(equation_tag="eq3.7", model="wilcoxon", n="1000;1000",
                      m="1;1", p=3.0, bound_known=1 / 3.0,
                      pass_flag=None),
        ]

    def test_csv_shape(self):
        text = render_rows(self._rows(), "csv")
        assert "\r\n" in text
        lines = text.split("\r\n")
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert lines[-1] == ""

    def test_csv_round_trip(self):
        text = render_rows(self._rows(), "csv")
        reader = csv.DictReader(io.StringIO(text))
        rec = next(reader)
        assert float(rec["bound_known"]) == 0.41
        assert float(rec["empirical"]) == 0.0397946186935894
        assert rec["pass"] == "true"
        rec = next(reader)
        assert rec["n"] == "1000;1000"
        assert float(rec["bound_known"]) == 1 / 3.0  # .17g is lossless
        assert rec["pass"] == "" and rec["empirical"] == ""

    def test_json_round_trip(self):
        text = render_rows(self._rows(), "json")
        back = json.loads(text)
        assert [r["equation_tag"] for r in back] == ["eq1.4", "eq3.7"]
        assert back[0]["pass"] is True and back[1]["pass"] is None
        assert list(back[0]) == list(RESULT_COLUMNS)
        assert text.endswith("\n")

    def test_render_deterministic(self):
        for fmt in ("csv", "json"):
            assert render_rows(self._rows(), fmt) == render_rows(
                self._rows(), fmt)

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            render_rows([], "csv")


class TestCmdExample41:
    def _cfg(self, eps, replicates=4000):
        return parse({"epsilon_grid": eps,
                      "mc": {"master_seed": 5, "replicates": replicates}})

    def test_closed_form_rows(self):
        rows, notes = cmd_example41(self._cfg([1e-3]))
        assert notes == []
        tags = [r.equation_tag for r in rows]
        assert tags == ["eq4.2", "eq4.3", "eq4.6", "eq4.7"]
        lower = rows[0]
        assert lower.pass_flag is True
        np.testing.assert_allclose(lower.empirical, 0.003303144025452176,
                                   rtol=1e-12)
        np.testing.assert_allclose(lower.bound_known,
                                   1e-3 ** (2.0 / 3.0) / 6.0, rtol=1e-12)
        assert rows[1].pass_flag is True
        assert rows[1].bound_known == 7e-3
        # comparison rows are report-only
        assert rows[2].pass_flag is None and rows[3].pass_flag is None

    def test_mc_rows_join_at_coarse_epsilon(self):
        rows, _ = cmd_example41(self._cfg([1e-2]))
        tags = [r.equation_tag for r in rows]
        assert tags == ["eq4.2", "eq4.3", "eq4.2", "eq4.3", "eq4.6", "eq4.7"]
        mc_lower, mc_coupling = rows[2], rows[3]
        assert mc_lower.pass_flag is True and mc_coupling.pass_flag is True
        assert mc_lower.dkw_radius is not None and mc_lower.se > 0
        assert abs(mc_lower.empirical - rows[0].empirical) <= 4 * mc_lower.se

    def test_epsilon_domain(self):
        with pytest.raises(ConfigError):
            cmd_example41(self._cfg([1.0 / 32.0]))
        with pytest.raises(ConfigError):
            cmd_example41(self._cfg([]))


class TestCmdSweep:
    def test_n_axis_decay(self):
        doc = make_doc(bounds=["eq1.4"],
                       sweep={"axis": "n", "grid": [100, 400]})
        rows, _ = cmd_sweep(parse(doc))
        assert [r.n for r in rows] == [100, 400]
        np.testing.assert_allclose(rows[0].bound_known / rows[1].bound_known,
                                   2.0, rtol=1e-12)

    def test_z_axis_reuses_point_bound(self):
        doc = make_doc(
            model={"family": "ustat", "kernel": "variance",
                   "dist": "std_normal", "n": 50},
            bounds=["eq3.3"], z_grid=[9.9],
            sweep={"axis": "z", "grid": [0.0, 2.0]})
        rows, _ = cmd_sweep(parse(doc))
        assert [r.z for r in rows] == [0.0, 2.0]
        np.testing.assert_allclose(rows[1].bound_known, 2.9638651958426157,
                                   rtol=1e-12)

    def test_epsilon_axis_is_isqrt_only(self):
        doc = make_doc(sweep={"axis": "epsilon", "grid": [1e-3, 1e-4]})
        with pytest.raises(ConfigError):
            cmd_sweep(parse(doc))
        doc = make_doc(model={"family": "isqrt", "epsilon": 0.01, "n": 100},
                       bounds=["eq2.3"],
                       sweep={"axis": "epsilon", "grid": [1e-3, 1e-4]})
        rows, _ = cmd_sweep(parse(doc))
        assert all(r.equation_tag == "eq4.2" and r.pass_flag for r in rows)
        assert rows[0].empirical > rows[1].empirical

    def test_missing_grid(self):
        doc = make_doc(sweep={"axis": "n"})
        with pytest.raises(ConfigError):
            cmd_sweep(parse(doc))

    def test_multisample_n_axis(self):
        rank = {"family": "multisample", "dist": "uniform01", "n": "10;10"}
        doc = make_doc(model=rank, bounds=["eq3.7"],
                       sweep={"axis": "n", "grid": [5, 6]})
        rows, _ = cmd_sweep(parse(doc))
        assert [(r.n, r.m) for r in rows] == [("5;5", "1;1"), ("6;6", "1;1")]
        doc["sweep"]["grid"] = [1, 3]
        with pytest.raises(ConfigError) as info:
            parse(doc)
        assert info.value.violations == [
            "sweep.grid[0]: model.n[0]: must be >= 2, got 1",
            "sweep.grid[0]: model.n[1]: must be >= 2, got 1"]


DISTS = "exponential1, rademacher, std_normal, uniform01"


class TestModelMessages:
    """The exact violation list of a bad model block, for every family and
    every field: type, minimum, catalog and the spec's own domain."""

    @pytest.mark.parametrize("model, want", [
        ({"family": "sparse"},
         ["model.family: unknown 'sparse'; "
          "catalog: isqrt, linear, lstat, multisample, ustat"]),
        ({"family": "linear", "dist": "cauchy", "n": 0},
         [f"model.dist: unknown 'cauchy'; catalog: {DISTS}",
          "model.n: must be >= 1, got 0"]),
        ({"kind": "linear", "dist": 3, "n": "10"},
         [f"model.dist: unknown 3; catalog: {DISTS}",
          "model.n: expected a finite number, got '10'"]),
        ({"family": "linear", "dist": "uniform01", "n": True},
         ["model.n: expected a finite number, got True"]),
        ({"family": "ustat", "kernel": "kendall", "dist": "std_normal",
          "n": 2, "m": 1},
         ["model.kernel: unknown 'kendall'; catalog: sum, variance",
          "model.n: must be >= 3, got 2", "model.m: must be >= 2, got 1"]),
        ({"family": "ustat", "kernel": "variance", "dist": None, "n": 2.0,
          "m": 2.5},
         [f"model.dist: unknown None; catalog: {DISTS}",
          "model.n: must be >= 3, got 2",
          "model.m: expected an integer, got 2.5"]),
        ({"family": "ustat", "kernel": "variance", "dist": "std_normal",
          "n": 20, "m": 3},
         ["model: catalog kernels have degree 2"]),
        ({"family": "ustat", "kernel": "product", "dist": "std_normal",
          "n": 20},
         ["model.kernel: unknown 'product'; catalog: sum, variance"]),
        ({"family": "multisample", "kernel": "mann", "dist": "uniform01",
          "n": "10;a", "m": [0, "x"]},
         ["model.kernel: unknown 'mann'; catalog: wilcoxon",
          "model.n[1]: expected a finite number, got 'a'",
          "model.m[0]: must be >= 1, got 0",
          "model.m[1]: expected a finite number, got 'x'"]),
        ({"family": "multisample", "dist": "gamma", "n": [1, 2.5],
          "m": [1, 1, 1]},
         [f"model.dist: unknown 'gamma'; catalog: {DISTS}",
          "model.n[0]: must be >= 2, got 1",
          "model.n[1]: expected an integer, got 2.5",
          "model.m: expected two kernel degrees, e.g. [1, 1]"]),
        ({"family": "multisample", "dist": "uniform01", "n": "10;10;10",
          "m": 1},
         ['model.n: expected two sample sizes, e.g. "1000;1000"',
          "model.m: expected two kernel degrees, e.g. [1, 1]"]),
        ({"family": "multisample", "dist": "rademacher", "n": "10;10"},
         ["model: rank kernels need a continuous observation distribution"]),
        ({"family": "multisample", "dist": "uniform01", "n": [10, 10],
          "m": [2, 1]},
         ["model: the rank kernel has degrees (1, 1)"]),
        ({"family": "lstat", "weight": "trimmed", "dist": "uniform01",
          "n": 3},
         ["model.weight: unknown 'trimmed'; catalog: const1, identity",
          "model.n: must be >= 4, got 3"]),
        ({"family": "lstat", "weight": "identity", "dist": "laplace",
          "n": "x"},
         [f"model.dist: unknown 'laplace'; catalog: {DISTS}",
          "model.n: expected a finite number, got 'x'"]),
        ({"family": "lstat", "weight": "identity", "dist": "rademacher",
          "n": 10},
         ["model: order-statistic weights need a continuous distribution"]),
        ({"family": "isqrt", "epsilon": "small", "n": 1},
         ["model.epsilon: expected a finite number, got 'small'",
          "model.n: must be >= 2, got 1"]),
        ({"family": "isqrt", "epsilon": 1.5},
         ["model: epsilon must lie in (0, 1), got 1.5"]),
        ({"family": "isqrt", "epsilon": float("nan"), "n": 2.5},
         ["model.epsilon: expected a finite number, got nan",
          "model.n: expected an integer, got 2.5"]),
        # fields the family does not take, a misspelt one among them
        ({"family": "multisample", "dist": "uniform01", "n": "5;5",
          "kernal": "x", "M": 3},
         ["model.kernal: unknown field; multisample takes dist, family, "
          "kernel, m, n",
          "model.M: unknown field; multisample takes dist, family, kernel, "
          "m, n"]),
        ({"family": "linear", "dist": "uniform01", "n": 0, "epsilon": 0.1},
         ["model.epsilon: unknown field; linear takes dist, family, n",
          "model.n: must be >= 1, got 0"]),
    ])
    def test_violation_list(self, model, want):
        with pytest.raises(ConfigError) as info:
            parse({"model": model, "mc": {"master_seed": 1}})
        assert info.value.violations == want

    def test_build_spec_lists_every_violation(self):
        with pytest.raises(InvalidModelError,
                           match="^model.dist: required; model.n: required$"):
            build_spec({"family": "ustat", "kernel": "variance"})

    def test_pair_forms(self):
        # both pair fields read "a;b", [a, b] and numbers written as text
        for n, m in (("7;5", "1;1"), ([7, 5], [1, 1]), (["7", 5], ["1", 1])):
            spec = build_spec({"family": "multisample", "dist": "uniform01",
                               "n": n, "m": m})
            assert (spec.n, spec.m) == ((7, 5), (1, 1))


class TestMainExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["bound", "--config", "/nonexistent/cfg.json"]) == 2
        assert "config:" in capsys.readouterr().err

    def test_config_violations_reported(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"family": "nope"}})
        assert main(["bound", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "model.family" in err and "mc.master_seed" in err

    def test_bound_stdout_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("equation_tag,model,")

    def test_verify_writes_file_and_passes(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        path = write_config(tmp_path, make_doc())
        assert main(["verify", "--config", path, "--output",
                     str(out)]) == 0
        text = out.read_bytes().decode()
        assert "\r\n" in text
        rec = next(csv.DictReader(io.StringIO(text)))
        assert rec["pass"] == "true"

    def test_module_run_writes_the_same_bytes(self, tmp_path, capsys):
        """`python -W error -m belab` is the same command line as main."""
        path = write_config(tmp_path, make_doc())
        want, got = tmp_path / "main.csv", tmp_path / "module.csv"
        assert main(["verify", "--config", path, "--output", str(want)]) == 0
        subprocess.run([sys.executable, "-W", "error", "-m", "belab",
                        "verify", "--config", path, "--output", str(got)],
                       env=_src_env(), check=True)
        assert got.read_bytes() == want.read_bytes()

    def test_cli_module_runs_its_command(self, tmp_path):
        """`python -m belab.cli` runs the command, with no runpy warning
        about a module imported before it ran, and prints what
        `python -m belab` prints."""
        path = write_config(tmp_path, make_doc(bounds=["eq1.3", "eq1.4"]))
        out = {}
        for module in ("belab", "belab.cli"):
            run = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                 "bound", "--config", path],
                env=_src_env(), capture_output=True, check=True)
            assert run.stderr == b""
            out[module] = run.stdout
        assert out["belab"].startswith(b"equation_tag,model,")
        assert out["belab.cli"] == out["belab"]

    def test_counterexample_domain_maps_to_config_error(self, tmp_path,
                                                        capsys):
        path = write_config(tmp_path, {"epsilon_grid": [1.0 / 32.0],
                                       "mc": {"master_seed": 1}})
        assert main(["example41", "--config", path]) == 2
        assert "epsilon_grid" in capsys.readouterr().err

    def test_tiny_epsilons_pass_or_exit_2(self, tmp_path, capsys):
        # Phi(eps^(2/3)) - Phi(eps * ISQRT_MEAN) rounds to 0 below eps ~
        # 1e-24, where the sweep once emitted failing rows and exited 1; the
        # erf form keeps its digits there. example41 pins n = eps^(-4),
        # which overflows a float below 2^-256: it exited 1 with a
        # traceback, and now exits 2
        out = tmp_path / "sweep.csv"
        doc = make_doc(model={"family": "isqrt", "epsilon": 0.01}, bounds=[],
                       sweep={"axis": "epsilon", "grid": [1e-24, 1e-30]})
        assert main(["sweep", "--config", write_config(tmp_path, doc),
                     "--output", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["epsilon"], r["pass"]) for r in rows] == [
            ("9.9999999999999992e-25", "true"),
            ("1.0000000000000001e-30", "true")], rows
        path = write_config(tmp_path, {"epsilon_grid": [1e-100],
                                       "mc": {"master_seed": 1}})
        assert main(["example41", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: epsilon_grid: ") and "1e-100" in err

    @pytest.mark.parametrize("field, over", [
        ("model.n", {"model": {"family": "multisample", "kernel": "wilcoxon",
                               "dist": "uniform01", "n": "10;x"},
                     "bounds": ["eq3.7"]}),
        ("z_grid", {"bounds": ["eq2.6"], "z_grid": [float("nan")]}),
        ("mc.replicates", {"mc": {"master_seed": 1,
                                  "replicates": float("nan")}}),
        ("mc.master_seed", {"mc": {"master_seed": 10 ** 400}}),
        ("model.dist", {"model": {"family": "linear", "dist": ["rademacher"],
                                  "n": 10}}),
        ("model.m", {"model": {"family": "multisample", "kernel": "wilcoxon",
                               "dist": "uniform01", "n": [10, 10],
                               "m": ["a", 1]},
                     "bounds": ["eq3.7"]}),
        # spec-level domain errors
        ("model", {"model": {"family": "isqrt", "epsilon": 1.5}}),
        ("model", {"model": {"family": "ustat", "kernel": "variance",
                             "dist": "std_normal", "n": 20, "m": 3}}),
        ("model", {"model": {"family": "ustat", "kernel": "variance",
                             "dist": "rademacher", "n": 20}}),
        ("model", {"model": {"family": "multisample", "kernel": "wilcoxon",
                             "dist": "rademacher", "n": "10;10"},
                   "bounds": ["eq3.7"]}),
        ("model", {"model": {"family": "multisample", "kernel": "wilcoxon",
                             "dist": "uniform01", "n": "10;10", "m": [2, 1]},
                   "bounds": ["eq3.7"]}),
        ("model", {"model": {"family": "lstat", "weight": "identity",
                             "dist": "rademacher", "n": 10},
                   "bounds": ["eq3.10"]}),
        ("model", {"model": {"family": "lstat", "weight": "identity",
                             "dist": "uniform01"},
                   "bounds": ["eq3.10"]}),
        # sweep values checked against the axis they set
        ("sweep.grid[0]: model.n", {"model": USTAT, "bounds": ["eq3.1"],
                                    "sweep": {"axis": "n", "grid": [2, 50]}}),
        ("sweep.grid[0]", {"sweep": {"axis": "n", "grid": [20.7]}}),
        ("sweep.grid[0]", {"sweep": {"axis": "replicates",
                                     "grid": [1500.5]}}),
        ("sweep.grid[0]", {"model": {"family": "isqrt", "epsilon": 0.01},
                           "bounds": [],
                           "sweep": {"axis": "epsilon", "grid": [0.5]}}),
    ])
    def test_malformed_inputs_exit_2(self, tmp_path, capsys, field, over):
        path = write_config(tmp_path, make_doc(**over))
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith(f"config: {field}") for line in err), err

    USTAT = {"family": "ustat", "kernel": "variance", "dist": "std_normal",
             "n": 30}
    LSTAT = {"family": "lstat", "weight": "identity", "dist": "uniform01",
             "n": 40}

    @pytest.mark.parametrize("command,field,doc,extra", [
        # (1 + |z|)^3 overflowed in the pointwise bounds
        ("bound", "z_grid[1]",
         make_doc(model=USTAT, bounds=["eq3.3", "eq3.4"], z_grid=[0.0, 1e200]),
         []),
        ("verify", "z_grid[0]",
         make_doc(model=LSTAT, bounds=["eq3.11"], z_grid=[-1e200]), []),
        ("sweep", "sweep.grid[0]",
         make_doc(model=USTAT, bounds=["eq3.3"],
                  sweep={"axis": "z", "grid": [1e200]}), []),
        # a non-isqrt model's epsilon reached the report; the family does
        # not take the field
        ("example41", "model.epsilon",
         make_doc(model={"family": "linear", "dist": "uniform01", "n": 10,
                         "epsilon": "x"}), []),
        # replicate counts beyond MAX_REPLICATES failed in np.empty
        ("verify", "mc.replicates",
         make_doc(mc={"master_seed": 1, "replicates": 1e103}), []),
        ("verify", "mc.replicates",
         make_doc(mc={"master_seed": 1, "replicates": MAX_REPLICATES + 1}),
         []),
        ("bound", "--replicates", make_doc(),
         ["--replicates", str(MAX_REPLICATES + 1)]),
        ("sweep", "sweep.grid[1]",
         make_doc(sweep={"axis": "replicates", "grid": [1000, 1e103]}), []),
        # an n sweep without a model block ended as a runtime error
        ("sweep", "model", make_doc(model=None,
                                    sweep={"axis": "n", "grid": [10]}), []),
    ])
    def test_out_of_range_inputs_exit_2(self, tmp_path, capsys, command,
                                        field, doc, extra):
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path] + extra) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith(f"config: {field}") for line in err), err

    @pytest.mark.parametrize("command,want", [
        ("bound", ["model: required object",
                   "bounds: at least one equation tag is required"]),
        ("verify", ["model: required object",
                    "bounds: at least one equation tag is required",
                    "mc.replicates: verification needs >= 1000, got 10"]),
        ("sweep", ["model: required object",
                   "bounds: at least one equation tag is required"]),
    ])
    def test_command_requirements_listed_together(self, tmp_path, capsys,
                                                  command, want):
        path = write_config(tmp_path, {
            "mc": {"master_seed": 1, "replicates": 10},
            "sweep": {"axis": "n", "grid": [10]}})
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config: {line}" for line in want]

    def test_replicates_sweep_checked_before_any_run(self, tmp_path, capsys,
                                                     monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "cmd_verify",
                            lambda cfg: runs.append(cfg.replicates) or ([], []))
        doc = make_doc(sweep={"axis": "replicates", "grid": [2000, 10, 20]})
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config: sweep.grid[1]: verification needs >= 1000, got 10",
            "config: sweep.grid[2]: verification needs >= 1000, got 20"]
        assert runs == []

    @pytest.mark.parametrize("tag", ["eq1.4", "eq2.3", "eq2.6", "eq3.3"])
    def test_nan_sample_exits_3(self, tmp_path, capsys, monkeypatch, tag):
        """A NaN in a sample reaches each distance kernel (W~N and T~W
        uniform, T~W and T~N at z) as a NumericError: exit 3 with one line
        of stderr, never the exit 1 of a failed row."""
        real = cli.sample_pass

        def with_nan(*args, **kwargs):
            t, w, comps = real(*args, **kwargs)
            t[5] = w[7] = np.nan
            return t, w, comps

        monkeypatch.setattr(cli, "sample_pass", with_nan)
        path = write_config(tmp_path, make_doc(model=USTAT, bounds=[tag],
                                               z_grid=[0.5]))
        assert main(["verify", "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "NaN" in err[0]

    def test_replicate_limit_is_inclusive(self):
        cfg = parse(make_doc(mc={"master_seed": 1,
                                 "replicates": MAX_REPLICATES}))
        assert cfg.replicates == MAX_REPLICATES

    def test_capacity_exit(self, tmp_path, capsys):
        # the enumeration cap binds the test oracles only, so a rank model
        # far past 10^6 pairs is built; its pair-count scratch is more than
        # numpy can index, which exits 3 like any block
        doc = make_doc(model={"family": "multisample", "kernel": "wilcoxon",
                              "dist": "std_normal", "n": [10 ** 17] * 2},
                       bounds=["eq3.7"],
                       mc={"master_seed": 1, "replicates": 1000})
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: "), err

    @pytest.mark.parametrize("command,model,bounds", [
        ("bound", {"family": "ustat", "kernel": "variance",
                   "dist": "std_normal", "n": 2000}, ["eq3.1"]),
        ("verify", {"family": "ustat", "kernel": "variance",
                    "dist": "std_normal", "n": 1500}, ["eq3.1"]),
        ("verify", {"family": "multisample", "kernel": "wilcoxon",
                    "dist": "exponential1", "n": "1001;1001"}, ["eq3.7"]),
    ])
    def test_models_past_the_enumeration_cap_run(self, tmp_path, capsys,
                                                 command, model, bounds):
        # neither model enumerates, so neither is held to the cap
        doc = make_doc(model=model, bounds=bounds,
                       mc={"master_seed": 1, "replicates": 1000})
        path = write_config(tmp_path, doc)
        out = tmp_path / "rows.csv"
        assert main([command, "--config", path, "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().count("\n") > 1

    # every size needs more bytes than any 64-bit address space holds, so
    # numpy refuses the allocation up front whatever the overcommit policy;
    # the last one needs more bytes than numpy's index type can count
    @pytest.mark.parametrize("command,doc", [
        ("bound", make_doc(model={"family": "lstat", "weight": "identity",
                                  "dist": "uniform01", "n": 10 ** 17},
                           bounds=["eq2.3"])),
        ("verify", make_doc(model={"family": "linear", "dist": "rademacher",
                                   "n": 10 ** 14},
                            mc={"master_seed": 1, "replicates": 1000})),
        ("verify", make_doc(model=HUGE_LINEAR,
                            mc={"master_seed": 1, "replicates": 1000})),
    ])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, command, doc):
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: "), err

    def test_oversized_model_still_bounds(self, tmp_path, capsys):
        # bound samples nothing, so a model too large to sample still gets
        # its row
        out = tmp_path / "rows.csv"
        path = write_config(tmp_path, make_doc(model=HUGE_LINEAR))
        assert main(["bound", "--config", path, "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "linear-rademacher-n100000000000000000" in out.read_text()

    def test_failed_certification_exit(self, tmp_path, capsys, monkeypatch):
        row = ResultRow(equation_tag="eq2.5", model="m", bound_known=0.1,
                        bound_c_coeff=0.0, empirical=0.5, dkw_radius=0.01,
                        se=0.0, pass_flag=False)
        monkeypatch.setattr(cli, "cmd_bound", lambda cfg: ([row], []))
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path]) == 1

    def test_bad_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path, "--seed", "-3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config: --seed: must be >= 0, got -3"]

    def test_format_override_json(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path, "--output", str(out),
                     "--format", "json"]) == 0
        back = json.loads(out.read_text())
        assert back[0]["equation_tag"] == "eq2.5"

    def test_output_dir_env_resolves_relative_paths(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("BELAB_OUTPUT_DIR", str(tmp_path))
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path, "--output", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()

    @pytest.mark.parametrize("model", [
        {"family": "lstat", "weight": "identity", "dist": "std_normal",
         "n": 8},
        {"family": "linear", "dist": "uniform01", "n": 2},
    ])
    def test_eq26_without_tail_oracle_exits_2_unsampled(
            self, tmp_path, capsys, monkeypatch, model):
        # g_i can exceed 1 and there is no W - g_i tail oracle: every z with
        # (|z| - 2) / 3 >= 0 is named, and nothing is sampled first
        calls = []
        monkeypatch.setattr(cli, "sample_pass",
                            lambda *a, **kw: calls.append(1))
        doc = make_doc(model=model, bounds=["eq2.6"], z_grid=[0.0, 3.0, 2.5])
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1] for line in err] == [" z_grid[1]",
                                                        " z_grid[2]"], err
        assert calls == []
        doc["sweep"] = {"axis": "z", "grid": [3.0]}
        path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config: sweep.grid[0]: ")
        monkeypatch.undo()
        path = write_config(tmp_path, make_doc(model=model, bounds=["eq2.6"],
                                               z_grid=[0.0]))
        assert main(["bound", "--config", path]) == 0

    @pytest.mark.parametrize("model", [
        {"family": "lstat", "weight": "const1", "dist": "exponential1",
         "n": 400},
        {"family": "lstat", "weight": "const1", "dist": "std_normal", "n": 8},
    ])
    def test_eq26_const1_lstat_takes_the_sum_tail(self, tmp_path, capsys,
                                                  model):
        # a const1 L-statistic is the standardized sample mean: its W - g_i
        # tail is the leave-one-out tail of the linear sum
        path = write_config(tmp_path, make_doc(model=model, bounds=["eq2.6"],
                                               z_grid=[0.0, 2.5, 4.0]))
        assert main(["bound", "--config", path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3 and all(r.startswith("eq2.6,") for r in rows)

    def test_const1_lstat_bound_samples_nothing(self, tmp_path, capsys,
                                                monkeypatch):
        # const1's remainder is zero, so eq2.6 takes exact zero components
        # and no chunk is drawn
        def no_draw(*_args, **_kwargs):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(LStatModel, "sample_chunk", no_draw)
        model = {"family": "lstat", "weight": "const1", "dist": "std_normal",
                 "n": 8}
        path = write_config(tmp_path, make_doc(model=model, bounds=["eq2.6"],
                                               z_grid=[0.0, 2.5]))
        assert main(["bound", "--config", path]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["se"] for r in rows] == ["0", "0"]

    def test_output_replaces_previous_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        out.write_text("previous")
        path = write_config(tmp_path, make_doc())
        assert main(["bound", "--config", path, "--output", str(out)]) == 0
        assert out.read_text().startswith("equation_tag,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "rows.csv"]

    @pytest.mark.parametrize("failure", ["render", "write", "rename"])
    def test_failed_output_keeps_previous_file(self, tmp_path, monkeypatch,
                                               failure):
        out = tmp_path / "rows.out"
        out.write_bytes(b"previous")
        row = ResultRow(equation_tag="eq2.5", model="m", bound_known=0.1)
        fmt = "csv"
        if failure == "render":
            # JSON output refuses a NaN cell
            row = ResultRow(equation_tag="eq2.5", model="m",
                            bound_known=float("nan"))
            fmt = "json"
        elif failure == "write":
            # a lone surrogate renders but has no UTF-8 encoding
            row = ResultRow(equation_tag="eq2.5", model="m\ud800")
        else:
            def fail(*_args):
                raise OSError("rename failed")
            monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises((ValueError, OSError)):
            cli.emit_results([row], fmt, str(out))
        assert out.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.out"]

    def test_example41_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "e41.csv"
        doc = {"epsilon_grid": [1e-2, 1e-3],
               "mc": {"master_seed": 5, "replicates": 4000}}
        path = write_config(tmp_path, doc)
        assert main(["example41", "--config", path, "--output",
                     str(out)]) == 0
        recs = list(csv.DictReader(io.StringIO(out.read_text())))
        assert sum(r["equation_tag"] == "eq4.6" for r in recs) == 2
        assert all(r["pass"] == "" for r in recs
                   if r["equation_tag"] in ("eq4.6", "eq4.7"))


class TestFlagsAreFields:
    """Each flag sets one config field and is checked by that field's
    rule; its violations carry the flag's name and join the config's."""

    def _main(self, tmp_path, capsys, doc, argv):
        path = write_config(tmp_path, doc)
        rc = main([argv[0], "--config", path] + argv[1:])
        return rc, capsys.readouterr()

    def test_seed_sets_a_missing_master_seed(self, tmp_path, capsys):
        doc = make_doc(mc={"replicates": 2000})
        out = tmp_path / "flag.csv"
        assert self._main(tmp_path, capsys, doc, [
            "verify", "--seed", "11", "--output", str(out)])[0] == 0
        ref = tmp_path / "field.csv"
        assert self._main(tmp_path, capsys, make_doc(), [
            "verify", "--output", str(ref)])[0] == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_format_sets_a_bad_output_format(self, tmp_path, capsys):
        doc = make_doc(output={"format": "xml"})
        rc, cap = self._main(tmp_path, capsys, doc,
                             ["bound", "--format", "json"])
        assert rc == 0 and cap.err == ""
        assert json.loads(cap.out)[0]["equation_tag"] == "eq2.5"

    def test_format_checked_by_the_field_rule(self, tmp_path, capsys):
        rc, cap = self._main(tmp_path, capsys, make_doc(),
                             ["bound", "--format", "xml"])
        assert rc == 2
        assert cap.err.splitlines() == [
            "config: --format: expected csv or json, got 'xml'"]

    @pytest.mark.parametrize("doc, argv, want", [
        (make_doc(p=1.0), ["--seed", "-3", "--threads", "0"],
         ["p: moment order must lie in (2, 3], got 1.0",
          "--seed: must be >= 0, got -3",
          "--threads: must be >= 1, got 0"]),
        (make_doc(), ["--seed", "-3", "--threads", "0"],
         ["--seed: must be >= 0, got -3", "--threads: must be >= 1, got 0"]),
        (make_doc(mc={"master_seed": 1, "threads": 0}),
         ["--seed", str(2 ** 63), "--replicates", "0"],
         ["--seed: must be below 2^63", "--replicates: must be >= 1, got 0",
          "mc.threads: must be >= 1, got 0"]),
        (make_doc(output={"format": "xml", "path": 5}),
         ["--replicates", str(MAX_REPLICATES + 1), "--output", "rows.csv"],
         [f"--replicates: must be <= {MAX_REPLICATES}, "
          f"got {MAX_REPLICATES + 1}",
          "output.format: expected csv or json, got 'xml'"]),
        (make_doc(mc={}), [],
         ["mc.master_seed: required (determinism contract; "
          "no wall-clock default)"]),
        (make_doc(mc=5), [],
         ["mc: expected an object",
          "mc.master_seed: required (determinism contract; "
          "no wall-clock default)"]),
        (make_doc(mc=5), ["--seed", "1"], ["mc: expected an object"]),
        (make_doc(), ["--threads", str(MAX_THREADS + 1)],
         [f"--threads: must be <= {MAX_THREADS}, got {MAX_THREADS + 1}"]),
        (make_doc(mc={"master_seed": 1, "threads": MAX_THREADS + 1}), [],
         [f"mc.threads: must be <= {MAX_THREADS}, got {MAX_THREADS + 1}"]),
        # a flag's text that is no integer reaches its field's rule
        (make_doc(p=1.0), ["--seed", "x"],
         ["p: moment order must lie in (2, 3], got 1.0",
          "--seed: expected a finite number, got 'x'"]),
        (make_doc(), ["--threads", "1.5"],
         ["--threads: expected a finite number, got '1.5'"]),
        (make_doc(mc={"master_seed": 1, "threads": 0}),
         ["--seed", "", "--replicates", "1e3"],
         ["--seed: expected a finite number, got ''",
          "--replicates: expected a finite number, got '1e3'",
          "mc.threads: must be >= 1, got 0"]),
    ])
    def test_one_ordered_list(self, tmp_path, capsys, monkeypatch, doc, argv,
                              want):
        # nothing runs: every case fails while its config is read
        monkeypatch.setattr(cli, "cmd_bound", None)
        rc, cap = self._main(tmp_path, capsys, doc, ["bound"] + argv)
        assert rc == 2
        assert cap.err.splitlines() == [f"config: {line}" for line in want]

    def test_thread_limit_is_inclusive(self):
        cfg = parse(make_doc(mc={"master_seed": 1, "threads": MAX_THREADS}))
        assert cfg.threads == MAX_THREADS

    def test_one_argument_parse_is_unchanged(self):
        cfg = parse(make_doc())
        assert cfg == parse_config(json.dumps(make_doc()), {
            "--seed": None, "--format": None}, "bound")
        assert (cfg.master_seed, cfg.output_format) == (11, "csv")

    @pytest.mark.parametrize("command, doc, argv, want", [
        ("verify", {"p": 1.0, "mc": {"master_seed": 1, "replicates": 10}}, [],
         ["p: moment order must lie in (2, 3], got 1.0",
          "model: required object",
          "bounds: at least one equation tag is required",
          "mc.replicates: verification needs >= 1000, got 10"]),
        ("verify", make_doc(), ["--replicates", "10"],
         ["--replicates: verification needs >= 1000, got 10"]),
        # a field's own violation stands for its requirement
        ("verify", make_doc(model=5, bounds="eq2.5"), [],
         ["model: expected an object",
          "bounds: expected a list of equation tags"]),
        ("sweep", make_doc(sweep={"axis": "w", "grid": [1]}), [],
         ["sweep.axis: expected one of epsilon, n, replicates, z, got 'w'"]),
        ("sweep", make_doc(p=1.0), [],
         ["p: moment order must lie in (2, 3], got 1.0",
          "sweep.axis: expected one of epsilon, n, replicates, z, got None"]),
        ("example41", {"epsilon_grid": [1e-2, 1e-3],
                       "mc": {"master_seed": 1}}, ["--replicates", "1"],
         ["--replicates: verification needs >= 1000, got 1"]),
        ("example41", {"p": 1.0, "epsilon_grid": [1e-3, 1e-2],
                       "mc": {"master_seed": 1, "replicates": 999}}, [],
         ["p: moment order must lie in (2, 3], got 1.0",
          "mc.replicates: verification needs >= 1000, got 999"]),
        ("example41", {"mc": {"master_seed": 1}}, [],
         ["epsilon_grid: required for example41"]),
        ("example41", make_doc(model={"family": "isqrt", "epsilon": 0.012}),
         ["--replicates", "10"],
         ["--replicates: verification needs >= 1000, got 10"]),
        # the report's epsilon domain joins the list
        ("example41", {"epsilon_grid": [0.5], "mc": {"master_seed": 1}},
         ["--replicates", "10"],
         ["epsilon_grid: epsilon must lie in (2^-256, 1/64), got 0.5",
          "--replicates: verification needs >= 1000, got 10"]),
        ("example41", {"epsilon_grid": [1e-3, 0, 2.0 ** -300],
                       "mc": {"master_seed": 1}}, [],
         ["epsilon_grid: epsilon must lie in (2^-256, 1/64), got 0.0",
          "epsilon_grid: epsilon must lie in (2^-256, 1/64), "
          f"got {2.0 ** -300}"]),
        # without an epsilon_grid the model block's epsilon is the grid,
        # and a violation is named after it
        ("example41", {"model": {"family": "isqrt", "epsilon": 0.5},
                       "mc": {"master_seed": 1}}, [],
         ["model.epsilon: epsilon must lie in (2^-256, 1/64), got 0.5"]),
    ])
    def test_command_requirements_join_the_list(self, tmp_path, capsys,
                                                command, doc, argv, want):
        rc, cap = self._main(tmp_path, capsys, doc, [command] + argv)
        assert rc == 2
        assert cap.err.splitlines() == [f"config: {line}" for line in want]

    def test_example41_without_sampled_rows_takes_no_floor(self, tmp_path,
                                                          capsys):
        doc = {"epsilon_grid": [1e-3], "mc": {"master_seed": 1}}
        rc, cap = self._main(tmp_path, capsys, doc,
                             ["example41", "--replicates", "1"])
        assert rc == 0 and cap.err == ""

    def test_library_commands_still_raise(self):
        cfg = parse({"epsilon_grid": [1e-2],
                     "mc": {"master_seed": 1, "replicates": 10}})
        with pytest.raises(ConfigError) as info:
            cmd_example41(cfg)
        assert info.value.violations == [
            "mc.replicates: verification needs >= 1000, got 10"]
        with pytest.raises(ConfigError) as info:
            cmd_verify(cfg)
        assert info.value.violations == [
            "model: required object",
            "bounds: at least one equation tag is required",
            "mc.replicates: verification needs >= 1000, got 10"]


class TestDeterminism:
    def _run(self, tmp_path, name, extra):
        out = tmp_path / name
        doc = make_doc(bounds=["eq2.4", "eq2.5"],
                       mc={"master_seed": 19, "replicates": 3000})
        path = write_config(tmp_path, doc, name + ".json")
        rc = main(["verify", "--config", path, "--output", str(out)] + extra)
        assert rc == 0
        return out.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a.csv", [])
        b = self._run(tmp_path, "b.csv", [])
        assert a == b

    def test_thread_count_does_not_change_bytes(self, tmp_path, capsys):
        a = self._run(tmp_path, "t1.csv", ["--threads", "1"])
        b = self._run(tmp_path, "t4.csv", ["--threads", "4"])
        assert a == b

    def test_seed_override_changes_sampled_columns(self, tmp_path, capsys):
        a = self._run(tmp_path, "s19.csv", [])
        b = self._run(tmp_path, "s20.csv", ["--seed", "20"])
        assert a != b


def readme_tag_table():
    """{tag: judged cell} from the README equation-tag table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text.split("### Equation tags", 1)[1].splitlines():
        if not line.startswith("| `eq"):
            continue
        # first word: "no (unknown constant)" reads as "no"
        judged = line.rstrip().rstrip("|").rsplit("|", 1)[1].split()[0]
        for tag in re.findall(r"`(eq[0-9.]+)`", line.split("|")[1]):
            table[tag] = judged
    return table


def golden_records(pattern):
    for path in sorted(GOLDEN_DIR.glob(pattern)):
        yield from csv.DictReader(io.StringIO(path.read_text()))


# one small model of each family
FAMILY_MODELS = {
    "linear": {"family": "linear", "dist": "uniform01", "n": 30},
    "ustat": USTAT,
    "multisample": {"family": "multisample", "dist": "uniform01",
                    "n": "40;30"},
    "lstat": {"family": "lstat", "weight": "identity", "dist": "uniform01",
              "n": 40},
    "isqrt": {"family": "isqrt", "epsilon": 0.05, "n": 100},
}


class TestTagRegistry:
    def test_judged_matches_verify_rows(self):
        """A verify row carries a pass cell exactly when its bound has no
        unknown-constant part, every row of a tag agrees on it, and the
        verify goldens hold every registry tag."""
        judged = {}
        for rec in golden_records("verify-*.csv"):
            has_pass = rec["pass"] != ""
            assert has_pass == (float(rec["bound_c_coeff"]) == 0.0), rec
            tag = rec["equation_tag"]
            assert judged.setdefault(tag, has_pass) == has_pass, rec
        assert set(judged) == set(cli.TAGS)

    def test_readme_table_matches_registry(self):
        """The README's judged column is what the goldens show: a tag is
        judged when its verify rows carry a pass cell."""
        want = {}
        for rec in golden_records("verify-*.csv"):
            want[rec["equation_tag"]] = "yes" if rec["pass"] else "no"
        # the counterexample rows come from example41, not the registry
        for rec in golden_records("example41.csv"):
            tag = rec["equation_tag"]
            if rec["pass"] or tag not in want:
                want[tag] = "yes" if rec["pass"] else "report-only"
        assert readme_tag_table() == want

    @pytest.mark.parametrize("family", sorted(FAMILY_MODELS))
    def test_rows_move_with_p_exactly_when_they_carry_it(self, family):
        """Each tag's rows at p = 2.5 and at p = 3 differ exactly when the
        tag writes p, so a bound that reads p shows it."""
        assert set(FAMILY_MODELS) == set(cli.FAMILIES)
        tags = [t for t, spec in cli.TAGS.items() if family in spec.families]
        rows = {}
        for p in (2.5, 3.0):
            doc = make_doc(model=FAMILY_MODELS[family], bounds=tags, p=p,
                           z_grid=[0.0, 1.0])
            for row in cmd_bound(parse(doc))[0]:
                rows.setdefault(row.equation_tag, {}).setdefault(
                    p, []).append(row)
        assert set(rows) == set(tags)
        for tag, by_p in rows.items():
            assert (by_p[2.5] != by_p[3.0]) == cli.TAGS[tag].with_p, tag

    def test_family_and_point_checks_follow_registry(self):
        for tag, spec in cli.TAGS.items():
            for family, model in (("linear", make_doc()["model"]),
                                  ("ustat", USTAT)):
                doc = make_doc(model=model, bounds=[tag])
                if family not in spec.families:
                    with pytest.raises(ConfigError, match="does not apply"):
                        parse(doc)
                    continue
                if spec.point:
                    with pytest.raises(ConfigError, match="z_grid"):
                        parse(doc)
                    doc["z_grid"] = [1.0]
                assert parse(doc).bounds == (tag,)

    def test_unhashable_tag_is_a_violation(self):
        with pytest.raises(ConfigError, match="unknown tag"):
            parse(make_doc(bounds=[["eq2.5"]]))

    def test_eq14_bound_draws_nothing(self, monkeypatch):
        calls = []
        orig = UStatModel.sample_chunk

        def counting(self, rng, count, mode=()):
            calls.append(mode)
            return orig(self, rng, count, mode=mode)

        monkeypatch.setattr(UStatModel, "sample_chunk", counting)
        rows, _ = cmd_bound(parse(make_doc(model=USTAT, bounds=["eq1.4"])))
        assert len(rows) == 1 and calls == []
        cmd_bound(parse(make_doc(model=USTAT, bounds=["eq1.3"])))
        assert calls and set(calls) == {("zero_out",)}

    def test_app_bounds_skip_beta(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.bound_core, "compute_beta", calls.append)
        doc = make_doc(model=USTAT, bounds=["eq3.1", "eq3.2"])
        rows, _ = cmd_bound(parse(doc))
        assert len(rows) == 2 and calls == []

    def test_shared_distance_computed_once(self, monkeypatch):
        calls = []
        orig = cli.empirical_ks_two_sample

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(cli, "empirical_ks_two_sample", counting)
        doc = make_doc(model=USTAT, bounds=["eq2.3", "eq2.4", "eq3.1"])
        rows, _ = cmd_verify(parse(doc))
        assert len(rows) == 3 and len(calls) == 1
        assert len({row.empirical for row in rows}) == 1
