"""belab.special against independent oracles: scipy.special for the cephes
port ndtr_array, math.erfc / math.erf for ndtr and erf, 30-digit mpmath for
the incomplete gamma functions and exact rational sums of binomial
coefficients for the binomial tail."""
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special as sc

from belab import mc_engine, special

SQRT2 = math.sqrt(2.0)
TINY = np.finfo(float).tiny  # smallest normal double


def _ulps(got, want):
    """|got - want| in units of the spacing of doubles at want."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def _edge_values():
    """Every branch point with its two neighbours, both zeros, both
    infinities and NaN."""
    branch = [1.0, SQRT2, 8.0, 8.0 * SQRT2, 37.5, 37.7, 38.5]
    edges = [v * s for v in branch for s in (1.0, -1.0)]
    near = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.concatenate([edges, near, [0.0, -0.0, np.inf, -np.inf, np.nan]])


def _dense_grid():
    # a dense grid, the edge values, and the tail where ndtr turns
    # subnormal and then 0 (where x^2 / 2 passes log(2^1024), near -37.7)
    return np.concatenate([
        np.linspace(-40.0, 40.0, 800001),
        np.linspace(-38.6, -37.0, 20001), np.linspace(37.0, 38.6, 2001),
        _edge_values()])


EDGES = _edge_values()
POOL = np.concatenate([EDGES, np.linspace(-39.0, 39.0, 1001)])


def _pool_sample(size):
    """size values drawn from POOL, holding every edge value that fits."""
    x = np.random.default_rng(size).permutation(np.resize(POOL, size))
    x[:min(size, EDGES.size)] = EDGES[:size]
    return x


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestNdtrArray:
    """ndtr_array evaluates cephes' rational forms like scipy at every size,
    so a value's bits do not depend on the array it comes in. Where no
    exponential is taken it returns scipy's values bit for bit. Elsewhere
    numpy's exp and libm's differ by at most 1 ulp; the product and the
    quotient that follow can turn that into a few ulps of the result."""

    X = _dense_grid()

    def test_bit_identical_without_exp(self):
        x = self.X[np.abs(self.X) < SQRT2]  # |x / sqrt 2| < 1
        np.testing.assert_array_equal(special.ndtr_array(x), sc.ndtr(x))

    def test_within_4_ulps(self):
        got, want = special.ndtr_array(self.X), sc.ndtr(self.X)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert _ulps(got[ok], want[ok]).max() <= 4
        # above the mode the reflection 1 - tail hides all but 1 ulp
        up = ok & (self.X > 0)
        assert _ulps(got[up], want[up]).max() <= 1

    def test_special_values(self):
        got = special.ndtr_array(np.array([-np.inf, np.inf, -0.0, 0.0, -40.0]))
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.5, 0.5, 0.0])
        assert np.isnan(special.ndtr_array(np.array([np.nan]))[0])

    def test_far_tails_warn_nothing(self):
        # x * x overflows past 1.3e154 and the far-tail polynomials past
        # about 3e51; no warning may leave the call, and each value is exact
        big = np.array([1e52, 1e154, 1e200, 1.7e308, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = special.ndtr_array(np.concatenate([big, -big, [np.nan]]))
        np.testing.assert_array_equal(got, [1.0] * 5 + [0.0] * 5 + [np.nan])

    def test_shapes(self):
        # strided 2-d input, and a 0-d array
        block = np.linspace(-9.0, 9.0, 1200).reshape(30, 40)
        out = special.ndtr_array(block[:, ::2])
        assert out.shape == (30, 20) and out.dtype == np.float64
        np.testing.assert_array_equal(
            out, special.ndtr_array(block[:, ::2].copy()))
        assert special.ndtr_array(np.array(1.5)).shape == ()

    @pytest.mark.parametrize("size", [1, 512, 513, 2 ** 15 + 1])
    def test_each_value_as_alone(self, size):
        x = _pool_sample(size)
        got = special.ndtr_array(x)
        keys, where = np.unique(x, return_inverse=True)
        alone = np.array([special.ndtr_array(np.array([v]))[0] for v in keys])
        np.testing.assert_array_equal(got, alone[where])
        np.testing.assert_array_equal(np.signbit(got), np.signbit(alone[where]))

    def test_backward_steps_stay_below_the_ks_margin(self):
        """Along ascending values ndtr_array falls below an earlier value
        by an ulp or two at most (2.2e-16 by the |x| = sqrt 2 edge): never
        more than 2^-50, far below the CDF_MARGIN by which the one-sample
        KS kernel widens its group bounds. Sorted ulp walks across each
        branch edge, and sorted normal draws at scales 1 to 40."""
        centres = [v * s for v in (SQRT2 / 2, 1.0, SQRT2, 8.0, 8.0 * SQRT2,
                                   37.5, 37.7, 38.5) for s in (1.0, -1.0)]
        walks = [(np.array([c]).view(np.int64) + np.arange(-4096, 4097))
                 .view(float) for c in centres]
        rng = np.random.default_rng(67)
        walks += [rng.standard_normal(400000) * scale
                  for scale in (1, 1.5, 2, 3, 5, 8, 13, 20, 30, 40)]
        worst = 0.0
        for x in walks:
            cdf = special.ndtr_array(np.sort(x))
            worst = max(worst, (np.maximum.accumulate(cdf) - cdf).max())
        assert 0.0 < worst <= 2.0 ** -50 < mc_engine.CDF_MARGIN


class TestNdtrErfScalar:
    """A Python float, and each value of an array of any size, goes through
    math.erfc / math.erf, not the port."""

    def test_float_in_float_out(self):
        for fn in (special.ndtr, special.erf):
            for x in (0.3, 2, np.float64(-1.5), np.int64(1)):
                assert type(fn(x)) is float

    @pytest.mark.parametrize("size", [1, 512, 513, 2 ** 15 + 1])
    def test_arrays_value_by_value(self, size):
        # bit for bit, signs of zero and NaN included, at every size
        x = _pool_sample(size)
        values = x.tolist()
        np.testing.assert_array_equal(
            _bits(special.ndtr(x)), _bits([special.ndtr(v) for v in values]))
        np.testing.assert_array_equal(
            _bits(special.erf(x)), _bits([math.erf(v) for v in values]))

    def test_special_values(self):
        got = special.ndtr(np.array([-np.inf, np.inf, -0.0, 0.0, -40.0]))
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.5, 0.5, 0.0])
        got = special.erf(np.array([-np.inf, np.inf, -0.0, 0.0]))
        np.testing.assert_array_equal(got, [-1.0, 1.0, -0.0, 0.0])
        assert np.signbit(got[2])
        assert np.isnan(special.ndtr(np.array([np.nan]))[0])

    @pytest.mark.parametrize("fn", [special.ndtr, special.erf])
    def test_shapes_and_types(self, fn):
        block = np.linspace(-9.0, 9.0, 1200).reshape(30, 40)
        out = fn(block)
        assert out.shape == (30, 40) and out.dtype == np.float64
        np.testing.assert_array_equal(out[:, ::2], fn(block[:, ::2]))
        np.testing.assert_array_equal(fn([0.5, 2.0]), fn(np.array([0.5, 2.0])))
        assert fn(np.array(1.5)).shape == ()
        assert fn(np.array([], dtype=float)).shape == (0,)
        np.testing.assert_array_equal(fn(np.array([1, 2])), fn([1.0, 2.0]))

    def test_ndtr_matches_mpmath(self):
        mpmath.mp.dps = 30
        # the roundings of 1/sqrt 2 and of x / sqrt 2 move erfc by up to
        # ~x^2 ulps far out; scipy's ndtr shares that error
        for x in np.linspace(-37.0, 8.0, 901):
            want = mpmath.ncdf(mpmath.mpf(float(x)))
            err = abs((mpmath.mpf(special.ndtr(float(x))) - want) / want)
            assert err <= (4.0 + x * x) * 2.0 ** -52

    def test_erf_matches_scipy(self):
        x = np.linspace(-7.0, 7.0, 2801)
        got = np.array([special.erf(float(v)) for v in x])
        assert _ulps(got, sc.erf(x)).max() <= 2


# shapes 0.5, 1.5, 2, 2.5 and integer and half-integer shapes up to 5000
SHAPES = [0.5, 1.5, 2.0, 2.5, 1.0, 3.0, 7.0, 10.0, 15.0, 16.0, 31.0, 100.0,
          101.0, 499.0, 500.0, 520.0, 1000.0, 2500.0, 4999.0, 5000.0,
          3.5, 7.5, 15.5, 16.5, 99.5, 499.5, 1000.5, 4999.5]


def _gamma_points(shapes, ks=(0, 1, 5, 20)):
    for a in shapes:
        for k in ks:
            for sign in (-1.0, 1.0):
                x = a + sign * k * math.sqrt(a)
                if x > 0.0:
                    yield a, x


def _mp_gamma_pq(a, x):
    """30-digit P(a, x) and Q(a, x): mpmath's gammainc, or for shapes past
    its default term budget x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x), with
    Q = 1 - P taken at enough digits for a Q far below 1."""
    if a < 1e5:
        mpmath.mp.dps = 30
        return (mpmath.gammainc(a, 0, x, regularized=True),
                mpmath.gammainc(a, x, mpmath.inf, regularized=True))
    q_scale = max(0, -math.floor(math.log10(special.gammaincc(a, x) or TINY)))
    mpmath.mp.dps = 30 + q_scale
    a_mp, x_mp = mpmath.mpf(a), mpmath.mpf(x)
    p = mpmath.exp(a_mp * mpmath.log(x_mp) - x_mp - mpmath.loggamma(a_mp + 1)
                   ) * mpmath.hyp1f1(1, a_mp + 1, x_mp, maxterms=10 ** 6)
    return p, 1 - p


class TestIncompleteGamma:
    @staticmethod
    def _check(a, x, rtol):
        want_p, want_q = _mp_gamma_pq(a, x)
        for got, want in ((special.gammainc(a, x), want_p),
                          (special.gammaincc(a, x), want_q)):
            if want < TINY:  # below the normal doubles
                assert got < 2 * TINY
                continue
            assert abs((mpmath.mpf(got) - want) / want) <= rtol, (a, x)

    @pytest.mark.parametrize("a,x", list(_gamma_points(SHAPES)))
    def test_matches_mpmath(self, a, x):
        self._check(a, x, 1e-13)

    @pytest.mark.parametrize("a,x", list(_gamma_points(
        [1e6, 1e6 + 0.5], ks=(0, 1, 5, 20, 35))))
    def test_uniform_expansion_matches_mpmath(self, a, x):
        # shapes from 1e6 on take Temme's expansion
        self._check(a, x, 1e-13)

    def test_expansion_meets_series_at_the_switch(self):
        below = np.nextafter(special._TEMME_MIN_SHAPE, 0.0)
        for k in (-3.0, 0.0, 0.5, 3.0):
            x = 1e6 + k * 1e3
            np.testing.assert_allclose(special.gammainc(below, x),
                                       special.gammainc(1e6, x), rtol=1e-12)

    def test_chi_square_tails(self):
        # chdtr(k, x) = P(k/2, x/2)
        for k, x in ((1, 0.3), (4, 9.0), (49, 30.0), (49, 120.0), (999, 1100.0)):
            np.testing.assert_allclose(special.gammainc(k / 2, x / 2),
                                       sc.chdtr(k, x), rtol=1e-13)
            np.testing.assert_allclose(special.gammaincc(k / 2, x / 2),
                                       sc.chdtrc(k, x), rtol=1e-13)

    def test_edges(self):
        assert special.gammainc(3.0, 0.0) == 0.0
        assert special.gammaincc(3.0, 0.0) == 1.0
        assert special.gammainc(3.0, math.inf) == 1.0
        assert special.gammaincc(3.0, math.inf) == 0.0
        assert math.isnan(special.gammainc(math.nan, 1.0))
        assert math.isnan(special.gammaincc(2.0, math.nan))
        assert special.gammainc(1e7, 1e300) == 1.0
        assert special.gammainc(1e300, 1e300) == pytest.approx(0.5)
        assert special.gammaincc(0.5, 1e300) == 0.0
        for a, x in ((0.0, 1.0), (-1.0, 1.0), (2.0, -1e-9)):
            with pytest.raises(ValueError):
                special.gammainc(a, x)


def _exact_cdf(m):
    """P(Bin(m, 1/2) <= k) for k = 0..m as Fractions."""
    out, cum, c = [], 0, 1
    for j in range(m + 1):
        cum += c
        c = c * (m - j) // (j + 1)
        out.append(Fraction(cum, 2 ** m))
    return out


def _assert_rel(got, want, rtol):
    if want < TINY:
        assert got < 2 * TINY
    else:
        assert abs(Fraction(float(got)) - want) <= rtol * want


class TestHalfBinomialTail:
    MS = list(range(1, 40)) + [64, 100, 101, 500, 777, 998, 999]

    @pytest.mark.parametrize("m", MS)
    def test_both_tails_exact(self, m):
        exact = _exact_cdf(m)
        k = np.arange(-3, m + 3)
        lower = special.half_binom_cdf(k, m)
        upper = special.half_binom_cdf(m - 1 - k, m)  # P(X > k) by symmetry
        for kk, lo, up in zip(k, lower, upper):
            want = (Fraction(0) if kk < 0 else Fraction(1) if kk >= m
                    else exact[kk])
            _assert_rel(lo, want, 1e-13)
            _assert_rel(up, 1 - want, 1e-13)

    @pytest.mark.parametrize("m", [7, 100, 999, 3001])
    def test_single_values_exact(self, m):
        # one k at a time sums only from k away from the mode
        exact = _exact_cdf(m)
        for k in sorted({0, 1, m // 3, m // 2 - 1, m // 2, m - 2, m - 1}):
            if 0 <= k < m:
                _assert_rel(special.half_binom_cdf(k, m), exact[k], 1e-13)

    def test_large_m_against_normal_limit(self):
        # the mass is summed a stretch at a time, in O(sqrt m) work; for
        # p = 1/2 the continuity-corrected normal cdf is off by O(1/m)
        m = 10 ** 9
        k = m // 2 - 2 * math.isqrt(m // 4)  # two sd below the mode
        mpmath.mp.dps = 30
        want = mpmath.ncdf((k + 0.5 - m / 2) / (math.sqrt(m) / 2))
        np.testing.assert_allclose(special.half_binom_cdf(k, m), float(want),
                                   rtol=1e-8)

    def test_memory_is_one_stretch(self):
        # ~6e6 masses are summed below k at m = 1e12, a stretch at a time
        m = 10 ** 12
        k = m // 2 - 2 * math.isqrt(m // 4)
        tracemalloc.start()
        try:
            special.half_binom_cdf(k, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_shape_and_support(self):
        got = special.half_binom_cdf(np.array([[-1, 0], [2, 3]]), 3)
        np.testing.assert_array_equal(got, [[0.0, 0.125], [0.875, 1.0]])
        assert special.half_binom_cdf(0, 1) == 0.5
        assert special.half_binom_cdf(5, 5) == 1.0
