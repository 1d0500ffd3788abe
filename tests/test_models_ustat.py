"""Degree-2 U-statistic models: kernel moments, oracles, leave-one-out,
and the exact laws of the variance kernel under std_normal."""
import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from belab.bound_core import check_normalization
from belab.cli import TAGS, cmd_verify, parse_config
from belab.errors import DegenerateModelError, UnsupportedModelError
from belab.mc_engine import CHUNK_SIZE, SeedSpec, collect_t_w, dkw_radius
from belab.models import (
    DIST_CATALOG,
    KERNEL_CATALOG,
    UStatModel,
    UStatSpec,
    build_model,
    ustat_moments,
)
from belab.models import ustat as ustat_module
from belab.models.base import part_stream
from belab.models.kernels import kernel_abs_p
from oracles import (
    CapacityError,
    dblquad,
    kernel_moment_mp,
    ks_vs_cdf,
    redraw_rows,
    sup_cdf_gap,
    ustat_value,
    variance_normal_cdfs,
    whole_draw,
)
from test_golden import CASES

E_ABS_CHI_CENTERED_3 = 8.691562902725508  # E|Z^2 - 1|^3
MODES = ("zero_out", "resample")


def chunk_and_draws(model, seed, count, mode):
    """A chunk and what it consumed, each part redrawn from its own stream:
    the data rows from a second copy of the substream (redraw_rows), then
    the replacement values from part 1's stream (zeros in zero_out mode,
    and for a structurally zero remainder, which draws none). The chunk
    must leave its substream where the data draws alone leave the copy."""
    rng_a, rng_b = SeedSpec(seed).substream(0), SeedSpec(seed).substream(0)
    chunk = model.sample_chunk(rng_a, count, mode=(mode,))
    x = redraw_rows(model, rng_b, count)
    v = (whole_draw(model.dist, part_stream(rng_b, 1), (count, 1))[:, 0]
         if mode == "resample" and not model.delta_is_zero
         else np.zeros(count))
    assert rng_a.random() == rng_b.random()
    return chunk, x, v


def oracle_t_w(model, x):
    """(T, W) of one replicate by pair enumeration and the Hajek projection."""
    n = x.size
    kernel, dist = model.kernel, model.dist
    s1 = math.sqrt(kernel.sigma1_sq(dist))
    t = math.sqrt(n) * ustat_value(kernel, x, dist) / (2 * s1)
    return t, float(np.sum(kernel.g_raw(x, dist))) / (math.sqrt(n) * s1)


def oracle_dvar(model, x, v):
    """Delta of one replicate with its first observation replaced by v."""
    xm = x.copy()
    xm[0] = v
    t, w = oracle_t_w(model, xm)
    return t - w


class TestKernelSecondMoments:
    def test_variance_std_normal(self):
        k = KERNEL_CATALOG["variance"]
        d = DIST_CATALOG["std_normal"]
        np.testing.assert_allclose(k.sigma1_sq(d), 0.5, rtol=1e-14)
        np.testing.assert_allclose(k.sigma_sq(d), 2.0, rtol=1e-14)

    def test_variance_uniform01(self):
        # mu4 = 1/80, var = 1/12
        k = KERNEL_CATALOG["variance"]
        d = DIST_CATALOG["uniform01"]
        np.testing.assert_allclose(k.sigma1_sq(d), 1.0 / 720.0, rtol=1e-12)
        np.testing.assert_allclose(k.sigma_sq(d), 7.0 / 720.0, rtol=1e-12)

    def test_sum_kernel_tracks_variance(self):
        k = KERNEL_CATALOG["sum"]
        for name in ("std_normal", "uniform01", "rademacher", "exponential1"):
            d = DIST_CATALOG[name]
            np.testing.assert_allclose(k.sigma1_sq(d), d.var, rtol=1e-12)
            np.testing.assert_allclose(k.sigma_sq(d), 2 * d.var, rtol=1e-12)

    def test_degenerate_projections_rejected(self):
        with pytest.raises(DegenerateModelError):
            UStatModel(UStatSpec("variance", "rademacher", 30))

    def test_mc_projection_variance(self):
        # sigma1^2 = Var(E[h(X, Y) | X]) by simulation
        rng = np.random.default_rng(11)
        k = KERNEL_CATALOG["variance"]
        d = DIST_CATALOG["exponential1"]
        x = whole_draw(d, rng, 200000)
        g = k.g_raw(x, d)
        est = g.var(ddof=1)
        se = np.std((g - g.mean()) ** 2, ddof=1) / math.sqrt(x.size)
        np.testing.assert_allclose(est, k.sigma1_sq(d), atol=4 * se)


class TestKernelAbsMoments:
    def test_variance_normal_third(self):
        got = kernel_abs_p("variance", "std_normal", 3.0)
        np.testing.assert_allclose(got, E_ABS_CHI_CENTERED_3, rtol=1e-9)

    def test_sum_normal_closed_form(self):
        # h = X + Y ~ N(0, 2)
        got = kernel_abs_p("sum", "std_normal", 2.5)
        want = 2.0 ** 1.25 * math.gamma(1.75) * 2.0 ** 1.25 / math.sqrt(math.pi)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_sum_rademacher_exact(self):
        # h = a + b over the four equally likely sign pairs (a, b)
        for p in (2.5, 3.0):
            want = np.mean([abs(a + b) ** p for a in (-1.0, 1.0)
                            for b in (-1.0, 1.0)])
            np.testing.assert_allclose(kernel_abs_p("sum", "rademacher", p),
                                       want, rtol=1e-15)

    def test_mc_cross_check(self):
        rng = np.random.default_rng(23)
        k = KERNEL_CATALOG["variance"]
        d = DIST_CATALOG["uniform01"]
        x = whole_draw(d, rng, 400000)
        y = whole_draw(d, rng, 400000)
        h = np.abs(k.h(x, y, d)) ** 3
        se = h.std(ddof=1) / math.sqrt(h.size)
        np.testing.assert_allclose(kernel_abs_p("variance", "uniform01", 3.0),
                                   h.mean(), atol=4 * se)

    @pytest.mark.parametrize("p", (2.5, 3.0))
    @pytest.mark.parametrize("dist", ("uniform01", "exponential1"))
    @pytest.mark.parametrize("kernel", ("variance", "sum"))
    def test_against_mpmath(self, kernel, dist, p):
        # closed form at p = 3; at p = 2.5 one quadrature, but for the sum
        # kernel under uniform01
        ref = kernel_moment_mp(kernel, dist, p)
        rtol = 1e-14 if p == 3.0 else 1e-10
        assert abs(kernel_abs_p(kernel, dist, p) - ref) <= rtol * abs(ref)

    @pytest.mark.parametrize("dist", ("uniform01", "exponential1"))
    @pytest.mark.parametrize("kernel", ("variance", "sum"))
    def test_one_variable_matches_double_integral(self, kernel, dist):
        # the nested quadrature over (X, Y) that the law of the one variable
        # h reads replaces; it reads up to 2.8e-10 off at p = 3
        k, d = KERNEL_CATALOG[kernel], DIST_CATALOG[dist]
        lo, hi = d.support
        fn = lambda y, x: np.abs(k.h(x, y, d)) ** 3 * d.pdf(x) * d.pdf(y)
        want, _err = dblquad(fn, lo, hi, lambda x: lo, lambda x: hi,
                             epsabs=1e-10, epsrel=1e-10)
        np.testing.assert_allclose(kernel_abs_p(kernel, dist, 3.0), want,
                                   rtol=1e-8)


class TestHajekProjection:
    def test_matches_conditional_mean(self):
        rng = np.random.default_rng(5)
        for kname in ("variance", "sum"):
            k = KERNEL_CATALOG[kname]
            d = DIST_CATALOG["exponential1"]
            y = whole_draw(d, rng, 300000)
            for x0 in (0.2, 1.0, 3.5):
                vals = k.h(x0, y, d)
                se = vals.std(ddof=1) / math.sqrt(y.size)
                np.testing.assert_allclose(float(k.g_raw(x0, d)), vals.mean(),
                                           atol=4 * se)

    def test_projection_is_centered(self):
        rng = np.random.default_rng(6)
        k = KERNEL_CATALOG["variance"]
        d = DIST_CATALOG["uniform01"]
        x = whole_draw(d, rng, 400000)
        vals = np.asarray(k.g_raw(x, d))
        se = vals.std(ddof=1) / math.sqrt(x.size)
        np.testing.assert_allclose(vals.mean(), 0.0, atol=4 * se)


class TestValueOracles:
    DISTS = ("std_normal", "uniform01", "exponential1")

    def test_power_sum_shortcut_matches_enumeration(self):
        rng = np.random.default_rng(41)
        for kname in ("variance", "sum"):
            k = KERNEL_CATALOG[kname]
            for dname in self.DISTS:
                d = DIST_CATALOG[dname]
                x = whole_draw(d, rng, 11)
                brute = math.fsum(
                    float(k.h(x[i], x[j], d))
                    for i, j in itertools.combinations(range(11), 2))
                c = x - d.mean
                c1, c2 = c.sum(), (c * c).sum()
                fast = k.pair_sum_from_power_sums(c1, c2, 11, d)
                np.testing.assert_allclose(fast, brute, rtol=1e-9,
                                           atol=1e-12)
                linear = math.fsum(map(float, k.g_raw(x, d)))
                np.testing.assert_allclose(
                    k.linear_sum_from_power_sums(c1, c2, 11, d), linear,
                    rtol=1e-9, atol=1e-12)

    def test_statistic_matches_enumerated_u(self):
        for kname, dname in [("variance", "std_normal"),
                             ("variance", "uniform01"),
                             ("sum", "exponential1")]:
            model = UStatModel(UStatSpec(kname, dname, 8))
            for mode in MODES:
                chunk, x, _v = chunk_and_draws(model, 42, 3, mode)
                for r in range(3):
                    t, w = oracle_t_w(model, x[r])
                    np.testing.assert_allclose(chunk["t"][r], t,
                                               rtol=1e-9, atol=1e-12)
                    np.testing.assert_allclose(chunk["w"][r], w,
                                               rtol=1e-9, atol=1e-12)

    def test_permutation_invariance(self):
        model = UStatModel(UStatSpec("variance", "exponential1", 12))
        for mode in MODES:
            chunk, x, _v = chunk_and_draws(model, 43, 3, mode)
            for r in range(3):
                t, _w = oracle_t_w(model, x[r][::-1].copy())
                np.testing.assert_allclose(chunk["t"][r], t, rtol=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            ustat_value(KERNEL_CATALOG["sum"], np.zeros(2000),
                        DIST_CATALOG["std_normal"])

    def test_spec_validation(self):
        with pytest.raises(UnsupportedModelError):
            UStatSpec("kendall", "std_normal", 10)
        with pytest.raises(UnsupportedModelError):
            UStatSpec("variance", "cauchy", 10)
        with pytest.raises(UnsupportedModelError):
            UStatSpec("variance", "std_normal", 2)


class TestLeaveOneOut:
    def test_zero_out_matches_enumeration(self):
        model = UStatModel(UStatSpec("variance", "std_normal", 8))
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 44, 3, mode)
            for r in range(3):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0], oracle_dvar(model, x[r], v[r]),
                    rtol=1e-9, atol=1e-12)

    def test_resample_draw_order(self):
        # the data block first, then one fresh draw per replicate; t and w
        # are the same rows in either mode
        model = UStatModel(UStatSpec("variance", "uniform01", 9))
        chunks = {}
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 45, 4, mode)
            chunks[mode] = chunk
            for r in range(4):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0], oracle_dvar(model, x[r], v[r]),
                    rtol=1e-9, atol=1e-12)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(chunks["zero_out"][key],
                                          chunks["resample"][key])

    def test_chunk_representative_index(self):
        # the leave-one-out columns are taken at index 0
        model = UStatModel(UStatSpec("variance", "std_normal", 10))
        s1 = math.sqrt(model.kernel.sigma1_sq(model.dist))
        for mode in MODES:
            chunk, x, _v = chunk_and_draws(model, 46, 3, mode)
            g = model.kernel.g_raw(x[:, 0], model.dist)
            np.testing.assert_allclose(
                chunk["g_rep"][:, 0], g / (math.sqrt(10) * s1),
                rtol=1e-12)
            np.testing.assert_allclose(
                chunk["t"] - chunk["w"], chunk["delta"],
                rtol=1e-9, atol=1e-12)

    def test_sum_kernel_delta_is_exactly_zero(self):
        model = UStatModel(UStatSpec("sum", "rademacher", 20))
        assert model.delta_is_zero
        for mode in MODES:
            chunk = model.sample_chunk(SeedSpec(47).substream(0), 5,
                                       mode=(mode,))
            assert np.all(chunk["delta"] == 0.0)
            assert np.all(chunk["dvar_rep"][mode] == 0.0)


class TestPowerSums:
    """A chunk takes W and T from the centred power sums of its rows."""

    @pytest.mark.parametrize("dist", ["uniform01", "exponential1"])
    @pytest.mark.parametrize("kernel", ["variance", "sum"])
    def test_w_matches_fsum_of_projections(self, kernel, dist):
        # nonzero means, so the centring is exercised; 600 rows make five
        # 128-row tiles at n = 5000
        model = UStatModel(UStatSpec(kernel, dist, 5000))
        chunk, x, _v = chunk_and_draws(model, 48, 600, "zero_out")
        scale = 1.0 / (math.sqrt(model.n) * model.sigma1)
        g = model.kernel.g_raw(x, model.dist)
        want = np.array([math.fsum(row) for row in g.tolist()]) * scale
        assert np.abs(chunk["w"] - want).max() <= 1e-12
        if model.delta_is_zero:
            assert chunk["t"].tobytes() == chunk["w"].tobytes()
            assert not chunk["delta"].any()

    @pytest.mark.parametrize("dist", ["std_normal", "uniform01",
                                      "exponential1"])
    @pytest.mark.parametrize("kernel", ["variance", "sum"])
    def test_rows_without_modes_equal_fused_rows(self, kernel, dist):
        """The data block is part 0 whatever the modes, so t and w of a
        call with no mode are those of a fused call, bit for bit."""
        model = UStatModel(UStatSpec(kernel, dist, 50))
        plain = model.sample_chunk(SeedSpec(49).substream(2), 1500)
        fused = model.sample_chunk(SeedSpec(49).substream(2), 1500,
                                   mode=MODES)
        for key in ("t", "w"):
            assert plain[key].tobytes() == fused[key].tobytes()


class TestMomentsBundle:
    def test_variance_normal_frozen(self):
        mom = ustat_moments(UStatSpec("variance", "std_normal", 50))
        np.testing.assert_allclose(mom["sigma"], math.sqrt(2.0), rtol=1e-14)
        np.testing.assert_allclose(mom["sigma1"], math.sqrt(0.5), rtol=1e-14)
        np.testing.assert_allclose(mom["e_abs_g_p"],
                                   E_ABS_CHI_CENTERED_3 / 8.0, rtol=1e-9)
        np.testing.assert_allclose(mom["e_abs_h_p"], E_ABS_CHI_CENTERED_3,
                                   rtol=1e-9)
        np.testing.assert_allclose(mom["c0_trunc"], 2.6181696821, rtol=1e-9)

    def test_sum_normal_truncation_root(self):
        mom = ustat_moments(UStatSpec("sum", "std_normal", 50))
        np.testing.assert_allclose(mom["c0_trunc"], 1.5381722544550522,
                                   atol=4e-9)

    def test_moments_shared_across_n(self, monkeypatch):
        calls = []
        orig = ustat_module.delta_from_truncation

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(ustat_module, "delta_from_truncation", counting)
        ustat_module._catalog_moments.cache_clear()
        small = ustat_moments(UStatSpec("variance", "exponential1", 20))
        large = ustat_moments(UStatSpec("variance", "exponential1", 200))
        assert len(calls) == 1
        assert small == large

    def test_truncation_root_property(self):
        # sum over one standardized summand of E g^2 I(|g| > c0) = 1/2
        from belab.marginals import LinearPart
        for kname, dname in [("variance", "std_normal"),
                             ("variance", "uniform01"),
                             ("sum", "exponential1")]:
            k = KERNEL_CATALOG[kname]
            marg = k.g_std_marginal(DIST_CATALOG[dname], 1.0)
            mom = ustat_moments(UStatSpec(kname, dname, 50))
            lp = LinearPart([(marg, 1)])
            assert lp.trunc_sum(mom["c0_trunc"]) <= 0.5
            assert lp.trunc_sum(mom["c0_trunc"] * (1 - 1e-8)) > 0.5


class TestNormalizationAndW:
    def test_linear_part_is_normalized(self):
        for desc in ({"family": "ustat", "kernel": "variance",
                      "dist": "std_normal", "n": 50},
                     {"family": "ustat", "kernel": "sum",
                      "dist": "uniform01", "n": 30}):
            check_normalization(build_model(desc).linear_part)

    def test_w_variance_mc(self):
        rng = np.random.default_rng(48)
        model = UStatModel(UStatSpec("variance", "std_normal", 25))
        chunk = model.sample_chunk(rng, 60000)
        v = chunk["w"].var(ddof=1)
        np.testing.assert_allclose(v, 1.0, atol=0.03)


def coupling_rows(w, delta, g1, d1, n):
    """The first-moment and L2 coupling rows of one variant mode, as the
    engine's sample_pass stacks them for a one-group model: |W D|,
    n |g_1 (D - D_1)|, |D|, D^2 and (D - D_1)^2."""
    diff = delta - d1
    return np.stack([np.abs(w * delta), n * np.abs(g1 * diff), np.abs(delta),
                     delta * delta, diff * diff])


def whole_row_coupling_rows(n, mode, rng, count):
    """coupling_rows of `count` whole rows of n std_normal draws from rng,
    with T, W and the remainder D_1 of the row whose x_1 is replaced in
    closed form: T = sqrt(n/2) (S^2 - 1), W = (sum x^2 - n) / sqrt(2n)."""
    x = rng.standard_normal((count, n))
    v = np.zeros(count) if mode == "zero_out" else rng.standard_normal(count)

    def t_w(rows):
        return (math.sqrt(n / 2.0) * (rows.var(axis=1, ddof=1) - 1.0),
                ((rows * rows).sum(axis=1) - n) / math.sqrt(2.0 * n))

    t, w = t_w(x)
    x1 = x[:, 0].copy()
    x[:, 0] = v
    t1, w1 = t_w(x)
    return coupling_rows(w, t - w, (x1 * x1 - 1.0) / math.sqrt(2.0 * n),
                         t1 - w1, n)


def mean_se(rows):
    """Per-row mean and standard error of stacked per-replicate rows."""
    return rows.mean(axis=1), rows.std(axis=1, ddof=1) / math.sqrt(
        rows.shape[1])


class TestNormalSums:
    """Under std_normal a chunk draws x_1, z and q, not its data rows, and
    the rows keep their law: the exact chi-square laws of T and W, and the
    coupling moments of whole rows."""

    @pytest.mark.parametrize("kernel", ["variance", "sum"])
    def test_three_columns_then_the_resample_part(self, kernel):
        """The chunk leaves its generator where three count-length draws
        leave a copy; x_1 is the first of them, and the resample values are
        part 1's standard normal run."""
        n, count = 50, 600
        model = UStatModel(UStatSpec(kernel, "std_normal", n))
        rng_a, rng_b = SeedSpec(50).substream(3), SeedSpec(50).substream(3)
        chunk = model.sample_chunk(rng_a, count, mode=MODES)
        x = redraw_rows(model, rng_b, count)
        assert rng_a.random() == rng_b.random()
        np.testing.assert_array_equal(
            chunk["g_rep"][:, 0], model.kernel.g_raw(x[:, 0], model.dist)
            * (1.0 / (math.sqrt(n) * model.sigma1)))
        if model.delta_is_zero:
            return
        v = part_stream(rng_b, 1).standard_normal(count)
        for r in range(0, count, 60):
            np.testing.assert_allclose(
                chunk["dvar_rep"]["resample"][r, 0],
                oracle_dvar(model, x[r], v[r]), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 30, 400])
    def test_t_and_w_follow_their_chi_square_laws(self, n):
        model = UStatModel(UStatSpec("variance", "std_normal", n))
        t, w = collect_t_w(model, 200000, SeedSpec(61))
        cdf_t, cdf_w = variance_normal_cdfs(n)
        assert ks_vs_cdf(t, cdf_t) <= dkw_radius(t.size)
        assert ks_vs_cdf(w, cdf_w) <= dkw_radius(w.size)

    def test_verify_golden_rows_against_the_exact_laws(self):
        """On the verify-ustat golden config, every judged T~N, W~N and
        T~W row has its exact distance within its bound, and its sampled
        distance within the DKW radius of the exact one."""
        _command, doc = CASES["verify-ustat"]
        rows, _notes = cmd_verify(parse_config(json.dumps(doc)))
        cdf_t, cdf_w = variance_normal_cdfs(doc["model"]["n"])
        cdfs = {"T": cdf_t, "W": cdf_w, "N": norm.cdf}
        judged = 0
        for row in rows:
            if row.pass_flag is None:
                continue
            a, b = (cdfs[side] for side in
                    TAGS[row.equation_tag].comparator.split("~"))
            exact = (sup_cdf_gap(a, b) if row.z is None
                     else abs(float(a(row.z)) - float(b(row.z))))
            assert exact <= row.bound_known, row
            assert abs(row.empirical - exact) <= row.dkw_radius, row
            judged += 1
        assert judged == 11

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [8, 50])
    def test_coupling_moments_match_whole_rows(self, n, mode):
        chunks = 8
        model = UStatModel(UStatSpec("variance", "std_normal", n))
        got = []
        for c in range(chunks):
            chunk = model.sample_chunk(SeedSpec(62).substream(c), CHUNK_SIZE,
                                       mode=(mode,))
            got.append(coupling_rows(chunk["w"], chunk["delta"],
                                     chunk["g_rep"][:, 0],
                                     chunk["dvar_rep"][mode][:, 0], n))
        rng = np.random.default_rng(63)
        want = [whole_row_coupling_rows(n, mode, rng, CHUNK_SIZE)
                for _ in range(chunks)]
        (m_got, se_got), (m_want, se_want) = (
            mean_se(np.hstack(got)), mean_se(np.hstack(want)))
        assert np.all(np.abs(m_got - m_want)
                      <= 4.0 * np.hypot(se_got, se_want))


class QuadratureReached(Exception):
    pass


class TestClosedFormRun:
    """verify on the variance kernel under std_normal (the benchmark's
    catalog workload at fewer replicates), uniform01 and exponential1 reads
    every analytic input from a closed form at p = 3 and integrates
    nothing; at p = 2.5, E|g|^p and E|h|^p still come from quadrature."""

    DOC = {"model": {"family": "ustat", "kernel": "variance",
                     "dist": "std_normal", "n": 50},
           "bounds": ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6",
                      "eq2.9", "eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"],
           "z_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
           "mc": {"master_seed": 3, "replicates": 4096}}

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        from belab import marginals, quadrature

        def refuse(*args, **kwargs):
            raise QuadratureReached

        # marginals holds its own name for quad
        monkeypatch.setattr(quadrature, "quad", refuse)
        monkeypatch.setattr(marginals, "quad", refuse)
        ustat_module._catalog_moments.cache_clear()
        kernel_abs_p.cache_clear()
        yield
        ustat_module._catalog_moments.cache_clear()
        kernel_abs_p.cache_clear()

    def test_closed_orders_integrate_nothing(self, no_quadrature):
        # under exponential1, g_i exceeds 1 and eq2.6 has no W - g_i tail
        # oracle at |z| >= 2 (test_cli pins that exit), so z stays inside
        for dist, z_grid in (("std_normal", self.DOC["z_grid"]),
                             ("uniform01", self.DOC["z_grid"]),
                             ("exponential1", [-1.0, 0.0, 1.0])):
            doc = dict(self.DOC, p=3.0, z_grid=z_grid,
                       model=dict(self.DOC["model"], dist=dist))
            rows, _notes = cmd_verify(parse_config(json.dumps(doc)))
            assert {r.equation_tag for r in rows} == set(self.DOC["bounds"])

    def test_other_orders_reach_quadrature(self, no_quadrature):
        with pytest.raises(QuadratureReached):
            cmd_verify(parse_config(json.dumps(dict(self.DOC, p=2.5))))
