"""Order-statistic models: influence functions, scale, and value oracles."""
import math

import mpmath
import numpy as np
import pytest

from belab.bound_core import check_normalization
from belab.errors import UnsupportedModelError
from belab.mc_engine import CHUNK_SIZE, SeedSpec
from belab.models import LStatModel, LStatSpec
from belab.models import base
from belab.models.base import DIST_CATALOG, ROW_TILE, part_stream
from belab.models.lstat import WEIGHT_CATALOG, catalog_scale, influence_closed
from belab.special import ndtr_array
from oracles import (
    influence_quadrature,
    lstat_projection_sigma,
    lstat_value,
    sigma_double_integral,
    t_center,
    whole_draw,
)


MODES = ("zero_out", "resample")
CONTINUOUS = ("exponential1", "std_normal", "uniform01")
PAIRS = [(w, d) for w in sorted(WEIGHT_CATALOG) for d in CONTINUOUS]


def mp_scale(weight, dist):
    """(sigma^2, T(F)) at 40 digits: Var infl(X) from each pair's influence
    function and E[X J(F(X))], as mpmath integrals."""
    with mpmath.workdps(40):
        if dist == "uniform01":
            cdf, pdf, points, mean = (lambda x: x), (lambda x: 1), [0, 1], 0.5
        elif dist == "std_normal":
            cdf, pdf, mean = mpmath.ncdf, mpmath.npdf, 0
            points = [-mpmath.inf, 0, mpmath.inf]
        else:
            cdf, pdf = (lambda x: 1 - mpmath.exp(-x)), (lambda x: mpmath.exp(-x))
            points, mean = [0, 1, mpmath.inf], 1
        if weight == "const1":
            jf, infl = (lambda u: 1), (lambda x: mean - x)
        else:
            jf = lambda u: u
            infl = {"uniform01": lambda x: mpmath.mpf(1) / 6 - x * x / 2,
                    "std_normal": lambda x: (1 / mpmath.sqrt(mpmath.pi)
                                             - x * mpmath.ncdf(x)
                                             - mpmath.npdf(x)),
                    "exponential1": lambda x: (mpmath.mpf(3) / 2 - x
                                               - mpmath.exp(-x))}[dist]
        e1 = mpmath.quad(lambda x: infl(x) * pdf(x), points)
        e2 = mpmath.quad(lambda x: infl(x) ** 2 * pdf(x), points)
        center = mpmath.quad(lambda x: x * jf(cdf(x)) * pdf(x), points)
        return e2 - e1 * e1, center


def chunk_and_draws(model, seed, count, mode):
    """A chunk and what it consumed, each part redrawn from its own stream:
    the data block from a second copy of the substream, then the
    replacement values from part 1's stream (zeros in zero_out mode). The
    chunk must leave its substream where the data block alone leaves the
    copy."""
    rng_a, rng_b = SeedSpec(seed).substream(0), SeedSpec(seed).substream(0)
    chunk = model.sample_chunk(rng_a, count, mode=(mode,))
    x = whole_draw(model.dist, rng_b, (count, model.n))
    v = (np.zeros(count) if mode == "zero_out"
         else whole_draw(model.dist, part_stream(rng_b, 1), (count, 1))[:, 0])
    assert rng_a.random() == rng_b.random()
    return chunk, x, v


def oracle_t_w(model, x):
    """(T, W) of one replicate from the raw value T(F_n) and the closed-form
    influence function."""
    n = x.size
    _infl, sigma, center = catalog_scale(model.spec.weight, model.spec.dist)
    infl = influence_closed(model.weight, model.dist)
    t = (lstat_value(x, model.weight) - center) * math.sqrt(n) / sigma
    return t, -float(np.sum(infl(x))) / (math.sqrt(n) * sigma)


def oracle_dvar(model, x, v):
    """Delta of one replicate with its first observation replaced by v."""
    xm = x.copy()
    xm[0] = v
    t, w = oracle_t_w(model, xm)
    return t - w


class TestValue:
    def test_const1_is_the_mean(self):
        assert lstat_value([3.0, 1.0, 2.0], WEIGHT_CATALOG["const1"]) == 2.0

    def test_identity_small_example(self):
        # (1 * J(1/2) + 3 * J(1)) / 2
        got = lstat_value([1.0, 3.0], WEIGHT_CATALOG["identity"])
        np.testing.assert_allclose(got, 1.75, rtol=1e-15)

    def test_sort_invariance(self):
        rng = np.random.default_rng(81)
        x = rng.random(9)
        w = WEIGHT_CATALOG["identity"]
        np.testing.assert_allclose(lstat_value(x, w),
                                   lstat_value(np.sort(x)[::-1], w),
                                   rtol=1e-14)


class TestCenters:
    def test_identity_uniform(self):
        got = t_center(WEIGHT_CATALOG["identity"], DIST_CATALOG["uniform01"])
        np.testing.assert_allclose(got, 1.0 / 3.0, rtol=1e-10)

    def test_identity_normal(self):
        got = t_center(WEIGHT_CATALOG["identity"], DIST_CATALOG["std_normal"])
        np.testing.assert_allclose(got, 1.0 / (2 * math.sqrt(math.pi)),
                                   rtol=1e-10)

    def test_identity_exponential(self):
        got = t_center(WEIGHT_CATALOG["identity"],
                       DIST_CATALOG["exponential1"])
        np.testing.assert_allclose(got, 0.75, rtol=1e-10)

    def test_const1_is_the_distribution_mean(self):
        for name in ("uniform01", "std_normal", "exponential1"):
            d = DIST_CATALOG[name]
            np.testing.assert_allclose(
                t_center(WEIGHT_CATALOG["const1"], d), d.mean, atol=1e-10)


class TestScale:
    @pytest.mark.parametrize("weight,dist", PAIRS)
    def test_closed_form_matches_mpmath(self, weight, dist):
        _infl, sigma, center = catalog_scale(weight, dist)
        s_sq, want = mp_scale(weight, dist)
        assert abs(sigma - mpmath.sqrt(s_sq)) <= 1e-14 * mpmath.sqrt(s_sq)
        assert abs(center - want) <= 1e-14 * abs(want) + 1e-30

    @pytest.mark.parametrize("weight,dist", PAIRS)
    def test_closed_form_matches_double_integral(self, weight, dist):
        _infl, sigma, center = catalog_scale(weight, dist)
        w, d = WEIGHT_CATALOG[weight], DIST_CATALOG[dist]
        np.testing.assert_allclose(sigma ** 2, sigma_double_integral(w, d),
                                   rtol=1e-12)
        np.testing.assert_allclose(sigma, lstat_projection_sigma(w, d)[1],
                                   rtol=1e-12)
        np.testing.assert_allclose(center, t_center(w, d), rtol=1e-12,
                                   atol=1e-15)

    def test_identity_uniform_is_one_over_45(self):
        s_sq = sigma_double_integral(WEIGHT_CATALOG["identity"],
                                     DIST_CATALOG["uniform01"])
        np.testing.assert_allclose(s_sq, 1.0 / 45.0, atol=1e-8)

    def test_identity_exponential_is_seven_twelfths(self):
        s_sq = sigma_double_integral(WEIGHT_CATALOG["identity"],
                                     DIST_CATALOG["exponential1"])
        np.testing.assert_allclose(s_sq, 7.0 / 12.0, atol=1e-8)

    def test_const1_recovers_the_variance(self):
        for name in ("uniform01", "std_normal"):
            d = DIST_CATALOG[name]
            s_sq = sigma_double_integral(WEIGHT_CATALOG["const1"], d)
            np.testing.assert_allclose(s_sq, d.var, atol=1e-8)

    def test_projection_reconciles_both_routes(self):
        infl, sigma = lstat_projection_sigma(WEIGHT_CATALOG["identity"],
                                             DIST_CATALOG["std_normal"])
        # E g^2 and the double integral agreed inside; spot the value by MC
        rng = np.random.default_rng(82)
        x = rng.standard_normal(400000)
        vals = np.asarray(infl(x))
        est = float((vals * vals).mean())
        se = float((vals * vals).std(ddof=1)) / math.sqrt(x.size)
        np.testing.assert_allclose(est, sigma ** 2, atol=4 * se)


class TestInfluence:
    GRID = (-1.5, -0.2, 0.1, 0.6, 0.97, 2.3)

    def test_closed_forms_match_quadrature(self):
        for wname, dname in [("identity", "uniform01"),
                             ("identity", "std_normal"),
                             ("identity", "exponential1"),
                             ("const1", "uniform01")]:
            w = WEIGHT_CATALOG[wname]
            d = DIST_CATALOG[dname]
            closed = influence_closed(w, d)
            quad = influence_quadrature(w, d)
            lo, hi = d.support
            for x in self.GRID:
                if not (lo < x < hi):
                    continue
                np.testing.assert_allclose(
                    float(closed(np.array([x]))[0]), quad(x),
                    rtol=1e-8, atol=1e-10)

    def test_influence_is_centered(self):
        # E infl(X) = 0 by quadrature
        from scipy import integrate
        w = WEIGHT_CATALOG["identity"]
        d = DIST_CATALOG["std_normal"]
        infl = influence_closed(w, d)
        val, _ = integrate.quad(
            lambda x: float(infl(np.array([x]))[0]) * d.pdf(x), -12, 12)
        np.testing.assert_allclose(val, 0.0, atol=1e-10)

    def test_raw_third_moment_frozen(self):
        model = LStatModel(LStatSpec("identity", "uniform01", 400))
        np.testing.assert_allclose(model.influence_abs_moment(3.0),
                                   0.004560212779638627, rtol=1e-8)

    def test_raw_moment_independent_of_n(self):
        a = LStatModel(LStatSpec("identity", "uniform01", 16))
        b = LStatModel(LStatSpec("identity", "uniform01", 400))
        np.testing.assert_allclose(a.influence_abs_moment(3.0),
                                   b.influence_abs_moment(3.0), rtol=1e-9)


def fold_edges():
    """0, the lattice's least step 2^-53, values next to 1 and the values
    within three ulps of sqrt(1/3), where 1/3 - x^2 cancels."""
    root = math.sqrt(1.0 / 3.0)
    near_root = [root]
    for _ in range(3):
        near_root = ([np.nextafter(near_root[0], 0.0)] + near_root
                     + [np.nextafter(near_root[-1], 1.0)])
    return np.array([0.0, 2.0 ** -53, 2.0 ** -52, 0.5, 1.0 - 2.0 ** -52,
                     1.0 - 2.0 ** -53, 1.0, *near_root])


class TestInfluenceFold:
    """influence_closed(w, d, factor=s) is influence_closed(w, d) times s
    bit for bit, written into `out` or into a new array, so the sampler's
    linear terms g = -infl(x) / (sqrt(n) sigma) keep their bits when the
    scale joins the influence's ufunc chain."""

    FACTORS = [-1.0 / (math.sqrt(n) * math.sqrt(s_sq)) for n in (4, 50, 400)
               for s_sq in (1.0 / 45.0, 7.0 / 12.0)] + [0.3, -1.7]

    @pytest.mark.parametrize("weight, dist", PAIRS)
    def test_fold_equals_product(self, weight, dist):
        w, d = WEIGHT_CATALOG[weight], DIST_CATALOG[dist]
        plain = influence_closed(w, d, cdf=ndtr_array)
        tile = np.empty((ROW_TILE, 400))
        d.fill(np.random.default_rng(92), tile)
        for x in (fold_edges(), tile):
            want_unit = plain(x)
            for s in self.FACTORS:
                folded = influence_closed(w, d, cdf=ndtr_array, factor=s)
                want = want_unit * s
                buf = np.empty_like(x)
                got = folded(x, out=buf)
                assert got is buf
                np.testing.assert_array_equal(got.view(np.int64),
                                              want.view(np.int64))
                np.testing.assert_array_equal(folded(x).view(np.int64),
                                              want.view(np.int64))

    def test_uniform_halving_is_exact(self):
        # 1/6 - x^2/2 = (1/3 - x^2)/2 exactly, and halving commutes with
        # rounding: the unit influence keeps the bits of the first form
        x = np.concatenate([fold_edges(), np.random.default_rng(93).random(4096)])
        infl = influence_closed(WEIGHT_CATALOG["identity"],
                                DIST_CATALOG["uniform01"])
        np.testing.assert_array_equal(
            infl(x).view(np.int64),
            np.subtract(1.0 / 6.0, np.square(x) / 2.0).view(np.int64))


class TestLipschitz:
    def test_catalog_weights_pass(self):
        """Each catalog J moves by at most its c_lip times the step of a
        uniform grid."""
        t = np.linspace(0.0, 1.0, 2001)
        for name, w in WEIGHT_CATALOG.items():
            c_lip = LStatModel(LStatSpec(name, "uniform01", 8)
                               ).bound_inputs(3.0).c_lip
            steps = np.abs(np.diff(w.fn(t)))
            assert (steps <= c_lip * np.diff(t) + 1e-12).all()

    def test_model_exposes_constant(self):
        assert LStatModel(LStatSpec("const1", "uniform01", 8)
                          ).bound_inputs(3.0).c_lip == 0.0
        assert LStatModel(LStatSpec("identity", "uniform01", 8)
                          ).bound_inputs(3.0).c_lip == 1.0


class TestModel:
    def test_scale_shared_across_n(self):
        small = LStatModel(LStatSpec("identity", "exponential1", 20))
        large = LStatModel(LStatSpec("identity", "exponential1", 200))
        assert small.sigma == large.sigma == math.sqrt(7.0 / 12.0)
        assert small._center == large._center == 0.75

    def test_spec_validation(self):
        with pytest.raises(UnsupportedModelError):
            LStatSpec("trimmed", "uniform01", 10)
        with pytest.raises(UnsupportedModelError):
            LStatSpec("identity", "rademacher", 10)
        with pytest.raises(UnsupportedModelError):
            LStatSpec("identity", "uniform01", 3)

    def test_statistic_matches_raw_value(self):
        model = LStatModel(LStatSpec("identity", "std_normal", 12))
        for mode in MODES:
            chunk, x, _v = chunk_and_draws(model, 83, 3, mode)
            for r in range(3):
                t, w = oracle_t_w(model, x[r])
                np.testing.assert_allclose(chunk["t"][r], t, rtol=1e-12)
                np.testing.assert_allclose(chunk["w"][r], w, rtol=1e-12)

    def test_normalized_linear_part(self):
        for wname, dname in [("identity", "uniform01"),
                             ("identity", "exponential1"),
                             ("const1", "std_normal")]:
            check_normalization(
                LStatModel(LStatSpec(wname, dname, 25)).linear_part)

    def test_const1_delta_vanishes(self):
        rng = np.random.default_rng(84)
        model = LStatModel(LStatSpec("const1", "exponential1", 10))
        chunk = model.sample_chunk(rng, 8, mode=("zero_out",))
        np.testing.assert_allclose(chunk["delta"], 0.0, atol=1e-12)
        np.testing.assert_allclose(chunk["dvar_rep"]["zero_out"], 0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("dist", CONTINUOUS)
    def test_const1_t_is_w(self, dist):
        """const1's T is the standardized mean, W itself: a chunk returns
        W's bits as T and exact zero remainders in every mode, and its W
        and g_rep are the oracle's rows."""
        model = LStatModel(LStatSpec("const1", dist, 10))
        assert model.delta_is_zero
        infl = influence_closed(model.weight, model.dist)
        scale = 1.0 / (math.sqrt(10) * model.sigma)
        for mode in MODES:
            chunk, x, _v = chunk_and_draws(model, 84, 300, mode)
            assert chunk["t"].tobytes() == chunk["w"].tobytes()
            assert not chunk["delta"].any()
            assert not chunk["dvar_rep"][mode].any()
            np.testing.assert_allclose(chunk["w"], -infl(x).sum(axis=1) * scale,
                                       rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(chunk["g_rep"][:, 0],
                                       -infl(x[:, 0]) * scale, rtol=1e-12)

    def test_delta_variant_brute(self):
        model = LStatModel(LStatSpec("identity", "uniform01", 6))
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 85, 3, mode)
            for r in range(3):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0], oracle_dvar(model, x[r], v[r]),
                    rtol=1e-9, atol=1e-13)

    def test_resample_variant_draw_order(self):
        # the data block first, then one fresh draw per replicate; t and w
        # are the same rows in either mode
        model = LStatModel(LStatSpec("identity", "exponential1", 7))
        chunks = {}
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 86, 3, mode)
            chunks[mode] = chunk
            for r in range(3):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0], oracle_dvar(model, x[r], v[r]),
                    rtol=1e-9, atol=1e-13)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(chunks["zero_out"][key],
                                          chunks["resample"][key])

    def test_chunk_matches_per_replicate(self):
        model = LStatModel(LStatSpec("identity", "std_normal", 9))
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 87, 3, mode)
            for r in range(3):
                t, _w = oracle_t_w(model, x[r])
                np.testing.assert_allclose(chunk["t"][r], t, rtol=1e-12)
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0], oracle_dvar(model, x[r], v[r]),
                    rtol=1e-9, atol=1e-13)


def tile_edge_rows(count):
    """Every row of a chunk up to two row tiles long; the first and last row
    of each row tile of a longer one."""
    if count <= 2 * ROW_TILE:
        return range(count)
    return sorted({r for start in range(0, count, ROW_TILE)
                   for r in (start, min(start + ROW_TILE, count) - 1)})


class TestRowTiles:
    """Chunk sizes on both sides of a row tile's edge: the tiled influence
    transform and position counts give the oracles' rows in both modes."""

    @pytest.mark.usefixtures("fixed_row_tiles")
    @pytest.mark.parametrize("weight", ["const1", "identity"])
    @pytest.mark.parametrize("count", [1, ROW_TILE - 1, ROW_TILE,
                                       ROW_TILE + 1, CHUNK_SIZE])
    def test_rows_match_oracles(self, count, weight):
        model = LStatModel(LStatSpec(weight, "std_normal", 9))
        infl = influence_closed(model.weight, model.dist)
        scale = 1.0 / (math.sqrt(9) * model.sigma)
        for mode in MODES:
            chunk, x, v = chunk_and_draws(model, 88, count, mode)
            np.testing.assert_allclose(chunk["w"], -infl(x).sum(axis=1) * scale,
                                       rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(chunk["g_rep"][:, 0],
                                       -infl(x[:, 0]) * scale, rtol=1e-12)
            for r in tile_edge_rows(count):
                t, _w = oracle_t_w(model, x[r])
                np.testing.assert_allclose(chunk["t"][r], t, rtol=1e-12,
                                           atol=1e-13)
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0],
                    oracle_dvar(model, x[r], v[r]), rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("count", [1, ROW_TILE + 1, 2 * ROW_TILE + 1])
    def test_rows_equal_first_rows_of_a_full_chunk(self, count):
        """A lone row, and a last tile of one row, give the rows of a whole
        chunk on the same stream bit for bit: T is a fixed-order row
        reduction, and the std_normal influence takes no value from the
        size of its tile."""
        model = LStatModel(LStatSpec("identity", "std_normal", 400))
        full = model.sample_chunk(SeedSpec(89).substream(0), CHUNK_SIZE,
                                  mode=MODES)
        chunk = model.sample_chunk(SeedSpec(89).substream(0), count,
                                   mode=MODES)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(chunk[key], full[key][:count])
        for mode in MODES:
            np.testing.assert_array_equal(chunk["dvar_rep"][mode],
                                          full["dvar_rep"][mode][:count])

    @pytest.mark.parametrize("dist", CONTINUOUS)
    @pytest.mark.parametrize("height", [1, 5, ROW_TILE])
    def test_rows_do_not_depend_on_the_tile_height(self, monkeypatch, height,
                                                   dist):
        """Tiles of any height give the rows of the default tiling (one
        4096-row tile at n = 9) bit for bit."""
        model = LStatModel(LStatSpec("identity", dist, 9))
        whole = model.sample_chunk(SeedSpec(90).substream(0), 300, mode=MODES)
        monkeypatch.setattr(base, "TILE_BYTES", 0)
        monkeypatch.setattr(base, "ROW_TILE", height)
        tiled = model.sample_chunk(SeedSpec(90).substream(0), 300, mode=MODES)
        for key in ("t", "w", "delta", "g_rep"):
            np.testing.assert_array_equal(tiled[key], whole[key])
        for mode in MODES:
            np.testing.assert_array_equal(tiled["dvar_rep"][mode],
                                          whole["dvar_rep"][mode])

    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("dist", CONTINUOUS)
    @pytest.mark.parametrize("weight", sorted(WEIGHT_CATALOG))
    def test_variant_edge_rows_match_oracle(self, weight, dist, n):
        """The variant update at the edges of its shifted run gives the
        oracle's Delta: see edge_rows."""
        model = LStatModel(LStatSpec(weight, dist, n))
        x, v = edge_rows(model.dist, n)
        replayed = LStatModel(LStatSpec(weight, dist, n))
        replayed.dist = Replay(x, v)
        chunk = replayed.sample_chunk(np.random.default_rng(91), len(x),
                                      mode=MODES)
        for r in range(len(x)):
            t, _w = oracle_t_w(model, x[r])
            np.testing.assert_allclose(chunk["t"][r], t, rtol=1e-12,
                                       atol=1e-13)
            for mode, value in zip(MODES, (0.0, v[r])):
                np.testing.assert_allclose(
                    chunk["dvar_rep"][mode][r, 0],
                    oracle_dvar(model, x[r], value), rtol=1e-9, atol=1e-13)


class Replay:
    """A law whose draws are given: each data tile takes the next rows of x
    and each fresh run the next values of v."""

    def __init__(self, x, v):
        self.rows, self.fresh = iter(x), iter(v)

    def fill(self, _rng, out):
        source = self.rows if out.ndim == 2 else self.fresh
        for k in range(len(out)):
            out[k] = next(source)


def edge_rows(dist, n):
    """Rows x and resample values v at the edges of the variant update: v
    below the row minimum, v equal to the largest and to the smallest of
    the row's other values, a representative tied with another value
    (alone, and with v equal to both), a representative at the last rank
    (with a drawn v, and with v above the row maximum), and, in the last
    row of the tile, a representative at the first rank with v above the
    row maximum, so that its shifted run ends at the tile's last value."""
    x = whole_draw(dist, np.random.default_rng(n), (8, n))
    v = whole_draw(dist, np.random.default_rng(n + 1), 8)
    lo, hi = dist.support
    below = lambda row: (lo + row.min()) / 2
    above = lambda row: (row.max() + hi) / 2
    v[0] = below(x[0])
    v[1], v[2] = x[1, 1:].max(), x[2, 1:].min()
    x[3, 0] = x[3, 2]
    x[4, 0] = v[4] = x[4, 1]
    for r in (5, 6):
        x[r, [0, x[r].argmax()]] = x[r, [x[r].argmax(), 0]]
    v[6] = above(x[6])
    x[7, [0, x[7].argmin()]] = x[7, [x[7].argmin(), 0]]
    v[7] = above(x[7])
    return x, v
