"""Standardized i.i.d. sums and the exact coin-flip distance."""
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

import belab
from belab.bound_core import check_normalization
from belab.cli import cmd_bound, cmd_verify, main, parse_config
from belab.errors import UnsupportedModelError
from belab.mc_engine import CHUNK_SIZE, SeedSpec
from belab.models import (
    DIST_CATALOG,
    LinearModel,
    LinearSpec,
    LStatModel,
    LStatSpec,
    build_model,
    rademacher_ks_exact,
)
from belab.models.base import ROW_TILE
from belab.models.linear import half_binom_cdf
from oracles import whole_draw


def _coin_flip_ks_reference(n):
    """sup |P(W <= w) - Phi(w)| over the atoms of a standardized sum of n
    signs, from exact binomial sums and 30-digit mpmath."""
    with mpmath.workdps(30):
        root, total = mpmath.sqrt(n), mpmath.mpf(2) ** n
        best, cum = mpmath.mpf(0), 0
        for k in range(n + 1):
            phi = mpmath.ncdf((2 * k - n) / root)
            before = cum
            cum += math.comb(n, k)
            best = max(best, abs(cum / total - phi), abs(before / total - phi))
        return float(best)


class TestExactCoinFlipDistance:
    def test_hand_check_n4(self):
        # atoms at -2,-1,0,1,2 with binomial(4, 1/2) masses
        atoms = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        cdf = np.array([1, 5, 11, 15, 16]) / 16.0
        before = np.concatenate([[0.0], cdf[:-1]])
        phi = ndtr(atoms)
        want = max(np.abs(cdf - phi).max(), np.abs(before - phi).max())
        np.testing.assert_allclose(rademacher_ks_exact(4), want, rtol=1e-14)

    def test_frozen_n100(self):
        np.testing.assert_allclose(rademacher_ks_exact(100),
                                   0.03979461869358947, rtol=1e-12)

    @pytest.mark.parametrize("n", [511, 512, 4096])
    def test_matches_exact_reference(self, n):
        # the n + 1 atoms go to ndtr as one array, on both sides of the
        # 512 values at which ndtr once changed route
        assert abs(rademacher_ks_exact(n) - _coin_flip_ks_reference(n)) <= 1e-15

    def test_root_n_decay(self):
        # distance scales like 1/sqrt(n) for even n
        r = rademacher_ks_exact(100) / rademacher_ks_exact(400)
        np.testing.assert_allclose(r, 2.0, atol=0.05)

    def test_mc_agreement(self):
        rng = np.random.default_rng(101)
        n, reps = 64, 200000
        w = (2.0 * rng.binomial(n, 0.5, reps) - n) / math.sqrt(n)
        t = np.sort(w)
        i = np.arange(1, reps + 1)
        ks = max(np.max(i / reps - ndtr(t)), np.max(ndtr(t) - (i - 1) / reps))
        # empirical sup distance concentrates near the exact value
        assert abs(ks - rademacher_ks_exact(n)) < 0.006


MODES = ("zero_out", "resample")


def chunk_and_draws(model, seed, count, mode):
    """A chunk and the data block it consumed, its only part, redrawn from
    a second copy of the same substream; both streams must end in the same
    state."""
    rng_a, rng_b = SeedSpec(seed).substream(0), SeedSpec(seed).substream(0)
    chunk = model.sample_chunk(rng_a, count, mode=(mode,))
    x = whole_draw(model.dist, rng_b, (count, model.n))
    assert rng_a.random() == rng_b.random()
    return chunk, x


class TestLinearModel:
    def test_delta_is_structurally_zero(self):
        model = LinearModel(LinearSpec("uniform01", 30))
        assert model.delta_is_zero
        for mode in MODES:
            chunk, _x = chunk_and_draws(model, 102, 16, mode)
            assert np.all(chunk["delta"] == 0.0)
            assert np.all(chunk["dvar_rep"][mode] == 0.0)
            assert np.all(chunk["t"] == chunk["w"])

    def test_statistic_is_standardized_sum(self):
        model = LinearModel(LinearSpec("exponential1", 20))
        for mode in MODES:
            chunk, x = chunk_and_draws(model, 103, 5, mode)
            want = (np.sum(x, axis=1) - 20.0) / math.sqrt(20.0)
            np.testing.assert_allclose(chunk["t"], want, rtol=1e-12)
            np.testing.assert_allclose(chunk["w"], want, rtol=1e-12)
            np.testing.assert_allclose(chunk["g_rep"][:, 0],
                                       (x[:, 0] - 1.0) / math.sqrt(20.0),
                                       rtol=1e-12)

    @pytest.mark.usefixtures("fixed_row_tiles")
    @pytest.mark.parametrize("count", [1, ROW_TILE - 1, ROW_TILE,
                                       ROW_TILE + 1, CHUNK_SIZE])
    def test_rows_across_row_tiles(self, count):
        model = LinearModel(LinearSpec("uniform01", 13))
        scale = 1.0 / math.sqrt(13.0 / 12.0)
        for mode in MODES:
            chunk, x = chunk_and_draws(model, 104, count, mode)
            want = (np.sum(x, axis=1) - 6.5) * scale
            np.testing.assert_allclose(chunk["t"], want, rtol=1e-12,
                                       atol=1e-13)
            np.testing.assert_allclose(chunk["w"], want, rtol=1e-12,
                                       atol=1e-13)
            np.testing.assert_allclose(chunk["g_rep"][:, 0],
                                       (x[:, 0] - 0.5) * scale, rtol=1e-12)
            assert chunk["g_rep"].shape == (count, 1)
            assert np.all(chunk["dvar_rep"][mode] == 0.0)

    def test_equal_draw_sums_give_equal_w(self):
        """W is the exact draw sum C1 times one scale, so a coin-flip chunk
        gives every row whose draws sum to 0 the atom W = 0.0, and W takes
        at most n + 1 values."""
        model = LinearModel(LinearSpec("rademacher", 100))
        chunk, x = chunk_and_draws(model, 7, CHUNK_SIZE, "zero_out")
        zero = x.sum(axis=1) == 0.0
        assert zero.sum() > 100  # about 8 % of the rows
        assert np.all(chunk["w"][zero] == 0.0)
        assert np.unique(chunk["w"]).size <= 101

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normal_sum_of_few_terms(self, n, tmp_path):
        """Below n = 3 the normal sum has no chi2_{n-2} part (n = 2) or no
        other terms at all (n = 1, where W is x_1); verify runs at each
        size."""
        model = LinearModel(LinearSpec("std_normal", n))
        rng_a, rng_b = SeedSpec(105).substream(0), SeedSpec(105).substream(0)
        chunk = model.sample_chunk(rng_a, 64, mode=MODES)
        x1 = rng_b.standard_normal(64)
        scale = 1.0 / math.sqrt(n)
        if n == 1:
            assert np.all(chunk["w"] == x1)
        else:
            # x_1 and the other terms' sum z sqrt(n - 1); a q only past n = 2
            z = rng_b.standard_normal(64)
            np.testing.assert_array_equal(
                chunk["w"], (x1 + math.sqrt(n - 1) * z) * scale)
            if n > 2:
                rng_b.chisquare(n - 2, 64)
        assert rng_a.random() == rng_b.random()
        np.testing.assert_array_equal(chunk["g_rep"][:, 0], x1 * scale)
        config = tmp_path / "linear.json"
        config.write_text(json.dumps({
            "model": {"family": "linear", "dist": "std_normal", "n": n},
            "bounds": _SHARED_TAGS, "z_grid": [0.0, 2.5],
            "mc": {"master_seed": 7, "replicates": 1000}}))
        assert main(["verify", "--config", str(config), "--output",
                     str(tmp_path / "rows.csv")]) == 0

    def test_normalization_all_dists(self):
        for dist in ("std_normal", "uniform01", "rademacher",
                     "exponential1"):
            check_normalization(LinearModel(LinearSpec(dist, 17)).linear_part)

    def test_exact_ks_dispatch(self):
        assert LinearModel(LinearSpec("std_normal", 10)
                           ).linear_ks_exact() == 0.0
        got = LinearModel(LinearSpec("rademacher", 36)).linear_ks_exact()
        np.testing.assert_allclose(got, rademacher_ks_exact(36), rtol=1e-14)
        assert LinearModel(LinearSpec("uniform01", 10)
                           ).linear_ks_exact() is None

    def test_leave_one_sum_tail_single_term(self):
        model = LinearModel(LinearSpec("std_normal", 1))
        assert model.prob_abs_w_minus_g_above(0, 0.0) == 0.0

    def test_spec_validation(self):
        with pytest.raises(UnsupportedModelError):
            LinearSpec("cauchy", 10)
        with pytest.raises(UnsupportedModelError):
            LinearSpec("std_normal", 0)


# the tags every family of a standardized sum answers; the W - g_i tail is
# read at 0 and at the eq2.6 levels (|z| - 2)/3 of z = 2.5 and z = 4
_SHARED_TAGS = ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6", "eq2.9"]
_TAIL_T = (0.0, 1.0 / 6.0, 2.0 / 3.0)


def _sum_models(dist, n):
    """Descriptors of the standardized sum of n draws of `dist`, one for
    each family that accepts the law, the linear model first."""
    descs = [{"family": "linear", "dist": dist, "n": n},
             {"family": "ustat", "kernel": "sum", "dist": dist, "n": n}]
    if DIST_CATALOG[dist].continuous:
        descs.append({"family": "lstat", "weight": "const1", "dist": dist,
                      "n": n})
    return descs


class TestOneStandardizedSum:
    """The linear model, the sum-kernel U-statistic and the const1
    L-statistic are the same statistic, W itself; the perturbed-normal
    model's W is the normal sum. All of them read one linear part."""

    @pytest.mark.parametrize("n", [8, 400])
    @pytest.mark.parametrize("dist", sorted(DIST_CATALOG))
    def test_families_agree_bit_for_bit(self, dist, n):
        def bound_rows(desc):
            doc = {"model": desc, "bounds": _SHARED_TAGS,
                   "z_grid": [0.0, 2.5],
                   "mc": {"master_seed": 5, "replicates": 1000}}
            rows, _notes = cmd_bound(parse_config(json.dumps(doc)))
            return [(r.equation_tag, r.z, repr(r.bound_known),
                     repr(r.bound_c_coeff), repr(r.se)) for r in rows]

        descs = _sum_models(dist, n)
        want = bound_rows(descs[0])
        assert len(want) == 9  # five uniform rows, eq2.6 and eq2.9 at two z
        linear = build_model(descs[0])
        for desc in descs[1:]:
            assert bound_rows(desc) == want, desc["family"]
            model = build_model(desc)
            assert model.linear_ks_exact() == linear.linear_ks_exact()
            for t in _TAIL_T:
                assert (model.prob_abs_w_minus_g_above(0, t)
                        == linear.prob_abs_w_minus_g_above(0, t))
            assert (model.nonuniform_third_term(4.0)
                    == linear.nonuniform_third_term(4.0))
        # only an unbounded g_i can exceed 1
        assert (linear.nonuniform_third_term(4.0) > 0.0) == (
            dist in ("std_normal", "exponential1"))
        if DIST_CATALOG[dist].continuous:
            # the identity weight's W is no standardized sum
            identity = LStatModel(LStatSpec("identity", dist, n))
            assert identity.prob_abs_w_minus_g_above(0, 2.0 / 3.0) is None

    @pytest.mark.parametrize("n", [8, 400])
    @pytest.mark.parametrize("dist", sorted(DIST_CATALOG))
    def test_families_verify_the_same_rows(self, dist, n):
        """All three sample by one chunk, so their verify rows agree in
        every column, empirical, se and pass among them, but the model's
        name and the U-statistic's degree m."""
        def verify_rows(desc):
            doc = {"model": desc, "bounds": _SHARED_TAGS,
                   "z_grid": [0.0, 2.5],
                   "mc": {"master_seed": 5, "replicates": 1000}}
            rows, _notes = cmd_verify(parse_config(json.dumps(doc)))
            return [repr({k: v for k, v in r.as_mapping().items()
                          if k not in ("model", "m")}) for r in rows]

        descs = _sum_models(dist, n)
        want = verify_rows(descs[0])
        assert len(want) == 9
        for desc in descs[1:]:
            assert verify_rows(desc) == want, desc["family"]

    @pytest.mark.parametrize("n", [8, 400])
    def test_isqrt_reads_the_normal_sum(self, n):
        isqrt = build_model({"family": "isqrt", "epsilon": 0.01, "n": n})
        linear = LinearModel(LinearSpec("std_normal", n))
        assert isqrt.linear_ks_exact() == linear.linear_ks_exact() == 0.0
        for t in _TAIL_T:
            assert (isqrt.prob_abs_w_minus_g_above(0, t)
                    == linear.prob_abs_w_minus_g_above(0, t))


class TestHalfBinomial:
    def test_upper_tail_matches_exact_sums(self):
        # P(X > k) = P(X <= m - 1 - k) against the exact rational tail
        tiny = Fraction(np.finfo(float).tiny)
        for m in (1, 2, 7, 100, 999):
            counts = [math.comb(m, j) for j in range(m + 1)]
            k = np.arange(-3, m + 3)
            for kk, got in zip(k, half_binom_cdf(m - 1 - k, m)):
                want = Fraction(sum(counts[max(kk + 1, 0):]), 2 ** m)
                if want < tiny:
                    assert got < 2 * np.finfo(float).tiny
                else:
                    assert abs(Fraction(float(got)) - want) <= want * 1e-13

    def test_support_edges_exact(self):
        assert half_binom_cdf(-1, 5) == 0.0
        assert half_binom_cdf(5, 5) == 1.0
        assert half_binom_cdf(40, 5) == 1.0


def _run_fresh(code, *args):
    """Run code in a new interpreter that imports belab from this tree."""
    src = str(Path(belab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_import_skips_scipy_stats():
    # no scipy module at all, scipy.stats included
    assert _run_fresh(
        "import sys, belab; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])") == "[]"


# runs each (command, config) through cli.main, then names every scipy
# module that is loaded
_QUADRATURE_PROBE = """
import json, os, sys
import belab
from belab.cli import main
out_dir = sys.argv[1]
for k, (command, doc) in enumerate(json.loads(sys.argv[2])):
    path = os.path.join(out_dir, f"cfg{k}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main([command, "--config", path,
                 "--output", os.path.join(out_dir, f"rows{k}.csv")]) == 0
print(" ".join(sorted(m for m, mod in sys.modules.items()
                      if m.split(".")[0] == "scipy" and mod is not None)))
"""
_GENERAL = ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6", "eq2.9"]


def _quadrature_modules(tmp_path, runs):
    return _run_fresh(_QUADRATURE_PROBE, str(tmp_path), json.dumps(runs))


def test_runs_without_quadrature_skip_scipy_integrate(tmp_path):
    mc = {"master_seed": 3, "replicates": 1000}
    runs = [
        ("verify", {"model": {"family": "multisample", "kernel": "wilcoxon",
                              "dist": "uniform01", "n": "40;30"},
                    "bounds": _GENERAL + ["eq3.7", "eq3.8"],
                    "z_grid": [0.0, 1.0], "mc": mc}),
        ("bound", {"model": {"family": "linear", "dist": "rademacher",
                             "n": 100},
                   "bounds": _GENERAL, "z_grid": [0.0, 1.0], "mc": mc}),
        ("bound", {"model": {"family": "isqrt", "epsilon": 0.05, "n": 100},
                   "bounds": ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5"],
                   "mc": mc}),
    ]
    assert _quadrature_modules(tmp_path, runs) == ""


def test_probe_sees_a_module_load(tmp_path):
    # the probe names a module that was loaded before the runs, so an
    # empty answer from it means no run loaded one
    runs = [("bound", {"model": {"family": "ustat", "kernel": "variance",
                                 "dist": "std_normal", "n": 20},
                       "bounds": ["eq3.1"],
                       "mc": {"master_seed": 3, "replicates": 1000}})]
    out = _run_fresh("import scipy.integrate\n" + _QUADRATURE_PROBE,
                     str(tmp_path), json.dumps(runs))
    assert "scipy.integrate" in out.split()


# every family, with the laws that reach each quadrature site and the root
# finder: marginal segments, kernel and scale double integrals, the
# counterexample's coupling integrals, and L-statistic preimages; each with
# two sizes for an n sweep
_FAMILY_MODELS = [
    ({"family": "multisample", "kernel": "wilcoxon", "dist": "uniform01",
      "n": "40;30"}, _GENERAL + ["eq3.7", "eq3.8"], [20, 30]),
    ({"family": "linear", "dist": "exponential1", "n": 50}, _GENERAL,
     [30, 50]),
    ({"family": "ustat", "kernel": "variance", "dist": "exponential1",
      "n": 20}, ["eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"], [20, 30]),
    ({"family": "lstat", "weight": "identity", "dist": "exponential1",
      "n": 20}, ["eq2.3", "eq3.10", "eq3.11"], [20, 40]),
    ({"family": "isqrt", "epsilon": 0.05, "n": 100},
     ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5"], [100, 200]),
]
_MC = {"master_seed": 3, "replicates": 1000}


def _runs_over_every_family():
    runs = [(command, {"model": model, "bounds": tags, "z_grid": [0.0, 1.0],
                       "mc": _MC})
            for model, tags, _grid in _FAMILY_MODELS
            for command in ("bound", "verify")]
    runs.append(("sweep", {"model": _FAMILY_MODELS[3][0],
                           "bounds": ["eq3.10"], "z_grid": [0.0], "mc": _MC,
                           "sweep": {"axis": "n", "grid": [20, 40]}}))
    runs.append(("example41", {"epsilon_grid": [1e-2], "mc": _MC}))
    return runs


def test_no_command_loads_scipy_integrate_or_optimize(tmp_path):
    # nor any other scipy module
    assert _quadrature_modules(tmp_path, _runs_over_every_family()) == ""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # with scipy unimportable, bound, verify, an n sweep and example41 over
    # the five families, plus the closed-form tails of eq2.6 (normal,
    # binomial, gamma and chi-square), all exit 0
    tails = [({"family": "linear", "dist": dist, "n": 30}, ["eq2.6"])
             for dist in ("std_normal", "rademacher", "exponential1")]
    tails.append(({"family": "ustat", "kernel": "variance",
                   "dist": "std_normal", "n": 20}, ["eq2.6"]))
    runs = _runs_over_every_family()
    runs += [(command, {"model": model, "bounds": tags, "z_grid": [0.0, 2.5],
                        "mc": _MC})
             for model, tags in tails for command in ("bound", "verify")]
    runs += [("sweep", {"model": model, "bounds": tags, "z_grid": [0.0],
                        "mc": _MC, "sweep": {"axis": "n", "grid": grid}})
             for model, tags, grid in _FAMILY_MODELS]
    out = _run_fresh('import sys\nsys.modules["scipy"] = None\n'
                     + _QUADRATURE_PROBE, str(tmp_path), json.dumps(runs))
    assert out == ""
