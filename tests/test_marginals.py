"""Moment oracles for the per-index marginals and their aggregation."""
import functools
import math

import numpy as np
import pytest
from scipy import integrate

from belab import marginals
from belab.bound_core import compute_beta, solve_delta_minimal
from belab.marginals import (
    CLOSED_P,
    QUAD_EPSABS,
    AtomMarginal,
    ExpCenteredMarginal,
    LinearPart,
    MonotoneMarginal,
    NormalMarginal,
    QuadraticMarginal,
    UniformMarginal,
    normal_abs_moment,
)
from belab.models import build_model
from belab.models.base import DIST_CATALOG, LAPLACE, TRIANGLE, BaseDist
from belab.models.kernels import KERNEL_CATALOG
from belab.models.linear import _unit_marginal
from oracles import quadratic_moment_mp, quadratic_tail_mp

E_ABS_Z3 = 1.5957691216057308  # 2 sqrt(2/pi)


def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TestNormalMarginal:
    def test_absolute_moments(self):
        m = NormalMarginal(1.0)
        np.testing.assert_allclose(m.e_abs_p(3.0), E_ABS_Z3, rtol=1e-12)
        np.testing.assert_allclose(m.e_abs_p(2.0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(normal_abs_moment(1.0),
                                   math.sqrt(2.0 / math.pi), rtol=1e-12)

    def test_truncated_pieces_sum_to_total(self):
        m = NormalMarginal(0.7)
        for p, t in [(3.0, 0.5), (2.5, 1.0), (2.0, 2.0)]:
            above = m.e_abs_p(p) - m.e_abs_p_below(p, t)
            brute, _ = integrate.quad(
                lambda x: abs(x) ** p * _phi(x / 0.7) / 0.7, t, 12 * 0.7)
            np.testing.assert_allclose(above, 2 * brute, rtol=1e-9)

    def test_e_abs_min_brute(self):
        m = NormalMarginal(0.3)
        for d in (0.1, 0.5, 2.0):
            # split at the kink |x| = d, integrand is even in x
            lo, _ = integrate.quad(
                lambda x: x * x * _phi(x / 0.3) / 0.3, 0.0, d)
            hi, _ = integrate.quad(
                lambda x: x * d * _phi(x / 0.3) / 0.3, d, 12 * 0.3)
            np.testing.assert_allclose(m.e_abs_min(d), 2 * (lo + hi),
                                       rtol=1e-9)


class TestUniformMarginal:
    def test_moments(self):
        # Uniform(-h, h): E|X|^p = h^p/(p+1)
        m = UniformMarginal(0.5)
        np.testing.assert_allclose(m.e2(), 1.0 / 12.0, rtol=1e-12)
        np.testing.assert_allclose(m.e_abs_p(3.0), 1.0 / 32.0, rtol=1e-12)
        assert m.prob_abs_above(0.5) == 0.0
        np.testing.assert_allclose(m.prob_abs_above(0.25), 0.5, rtol=1e-12)

    def test_unit_variance_scaling(self):
        m = UniformMarginal(math.sqrt(3.0))
        np.testing.assert_allclose(m.e2(), 1.0, rtol=1e-12)


class TestAtomMarginal:
    def test_rademacher(self):
        m = AtomMarginal.rademacher(1.0)
        assert m.e_abs_p(3.0) == 1.0
        assert m.e2_above(1.0) == 0.0  # strict inequality at the atom
        assert m.e2_above(0.999) == 1.0
        assert m.prob_abs_above(1.0) == 0.0

    def test_scaled_atoms(self):
        m = AtomMarginal.rademacher(0.1)
        np.testing.assert_allclose(m.e_abs_min(0.05), 0.1 * 0.05, rtol=1e-12)
        np.testing.assert_allclose(m.e_abs_min(1.0), 0.01, rtol=1e-12)


class TestExpCenteredMarginal:
    def test_moments(self):
        # X - 1 with X ~ Exp(1): E|X-1| = 2/e, E(X-1)^2 = 1
        m = ExpCenteredMarginal(1.0)
        np.testing.assert_allclose(m.e2(), 1.0, rtol=1e-10)
        np.testing.assert_allclose(m.e_abs_p(1.0), 2.0 / math.e, rtol=1e-10)

    def test_tail_prob(self):
        m = ExpCenteredMarginal(1.0)
        # P(|X-1| > t) = P(X > 1+t) + P(X < 1-t)
        for t in (0.3, 0.9, 1.0, 2.5):
            want = math.exp(-(1 + t)) + (1 - math.exp(-(1 - t)) if t < 1 else 0.0)
            np.testing.assert_allclose(m.prob_abs_above(t), want, rtol=1e-10)


class TestQuadraticVarianceProjection:
    """Marginal of (X^2 - 1)/(2 sigma1) for standard normal X."""

    SIGMA1 = math.sqrt(0.5)

    def _marg(self):
        return KERNEL_CATALOG["variance"].g_std_marginal(
            DIST_CATALOG["std_normal"], 1.0)

    def test_unit_variance(self):
        np.testing.assert_allclose(self._marg().e2(), 1.0, rtol=1e-9)

    def test_third_moment(self):
        # E|X^2-1|^3 = 8.691562902725508, standardized by (2 sigma1)^3
        want = 8.691562902725508 / (2 * self.SIGMA1) ** 3
        np.testing.assert_allclose(self._marg().e_abs_p(3.0), want, rtol=1e-9)

    def test_tail_prob_vs_chi2(self):
        from scipy.stats import chi2
        m = self._marg()
        for t in (0.5, 1.0, 3.0):
            # |X^2-1| > 2 sigma1 t
            u = 2 * self.SIGMA1 * t
            want = chi2.sf(1 + u, 1) + (chi2.cdf(1 - u, 1) if u < 1 else 0.0)
            np.testing.assert_allclose(m.prob_abs_above(t), want, rtol=1e-9)


# the continuous catalog laws, under each of which the variance kernel's
# projection is a QuadraticMarginal
QUADRATIC_LAWS = ("std_normal", "uniform01", "exponential1")
# the laws of X - X' under uniform01 and exponential1, on which the
# variance kernel h is the QuadraticMarginal (D^2 - var D) / 2
DIFFERENCE_LAWS = {"triangle": TRIANGLE, "laplace": LAPLACE}
# from 1e-6 to past every support window
ORACLE_T = (1e-6, 1e-4, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 10.0, 1e4)


def _variance_projection(dist, n):
    """The marginal of one summand g(X_i) / (sqrt(n) sigma_1) of W; under
    a law of X - X', that of h / sqrt(n)."""
    if dist in DIFFERENCE_LAWS:
        return QuadraticMarginal(0.5 / math.sqrt(n), DIFFERENCE_LAWS[dist])
    return KERNEL_CATALOG["variance"].g_std_marginal(DIST_CATALOG[dist],
                                                     1.0 / math.sqrt(n))


class TestQuadraticClosedForms:
    """QuadraticMarginal's closed forms at p in CLOSED_P, and its tails,
    within max(1e-13 |ref|, 1e-16) of 40-digit mpmath integrals, for the
    variance kernel's projection and, on the laws of X - X', the kernel
    itself. Beside the grid,
    t sits 1e-9 to either side of a v, the peak of |g| at X = mean, where
    the region edge sqrt(v - t/a) is a difference of nearly equal numbers.
    The closed forms use Python floats alone (math.erfc, math.exp), so
    they hold whatever BLAS kernel or numpy SIMD dispatch the host has."""

    @staticmethod
    def _close(got, ref):
        assert abs(got - float(ref)) <= max(1e-13 * abs(ref), 1e-16), (
            got, float(ref))

    @pytest.mark.parametrize("n", (4, 50, 400))
    @pytest.mark.parametrize("dist", QUADRATIC_LAWS + tuple(DIFFERENCE_LAWS))
    def test_against_mpmath(self, dist, n):
        marg = _variance_projection(dist, n)
        peak = marg.a * marg.c
        for p in CLOSED_P:
            self._close(marg.e_abs_p(p), quadratic_moment_mp(marg, p))
            for t in ORACLE_T + (peak * (1 - 1e-9), peak * (1 + 1e-9)):
                self._close(marg.e_abs_p_below(p, t),
                            quadratic_moment_mp(marg, p, t))

    @pytest.mark.parametrize("dist", QUADRATIC_LAWS + tuple(DIFFERENCE_LAWS))
    def test_quadrature_tier_agrees(self, dist):
        # the quadrature tier, kept for every other p, over the same pieces
        marg = _variance_projection(dist, 50)
        regions = [(0.0, math.inf)] + [marg._region_points(t)
                                       for t in (0.01, 0.3, 1.0, 10.0)]
        for p in CLOSED_P:
            for lo, hi in regions:
                assert abs(marg._closed_abs_p(int(p), lo, hi)
                           - marg._quad_abs_p(p, lo, hi)) <= QUAD_EPSABS

    @pytest.mark.parametrize("dist", QUADRATIC_LAWS + tuple(DIFFERENCE_LAWS))
    def test_tails_against_mpmath(self, dist):
        # n = 1: under a law of X - X', the marginal of h itself
        marg = _variance_projection(dist, 1)
        peak = marg.a * marg.c
        for t in ORACLE_T + (peak * (1 - 1e-9), peak * (1 + 1e-9)):
            self._close(marg.prob_abs_above(t), quadratic_tail_mp(marg, t))

    def test_other_orders_take_quadrature(self, monkeypatch):
        marg = _variance_projection("std_normal", 50)
        monkeypatch.setattr(QuadraticMarginal, "_quad_abs_p",
                            lambda self, p, lo, hi: -1.0)
        assert marg.e_abs_p_below(2.5, 1.0) == -1.0
        assert marg.e_abs_p_below(3.0, 1.0) > 0.0

    @pytest.mark.parametrize("dist, n", [("std_normal", 1000),
                                         ("std_normal", 10 ** 4),
                                         ("exponential1", 1000),
                                         ("exponential1", 10 ** 4)])
    def test_far_tail_without_cancellation(self, dist, n):
        # std_normal: P(|g| > 1) is P(|X| > 6.76), 1.4e-11, at n = 1000 and
        # P(|X| > 11.93), 7.9e-33, at n = 10^4, where 1 - cdf keeps four
        # digits and then none
        marg = _variance_projection(dist, n)
        ref = quadratic_tail_mp(marg, 1.0)
        assert abs(marg.prob_abs_above(1.0) - ref) <= 1e-12 * ref


class TestMonotoneMarginal:
    """Marginal of the uniform order-statistic influence 1/6 - x^2/2."""

    def _marg(self):
        from belab.models import build_model
        model = build_model({"family": "lstat", "weight": "identity",
                             "dist": "uniform01", "n": 45})
        marg, count = model.linear_part.groups[0]
        assert count == 45
        factor = math.sqrt(45.0) * model.sigma  # to raw units
        return MonotoneMarginal(lambda x: factor * marg.fn(x), marg.x_lo,
                                marg.x_hi, marg.density, marg.cdf)

    def test_raw_moments(self):
        m = self._marg()
        np.testing.assert_allclose(m.e2(), 1.0 / 45.0, rtol=1e-9)
        np.testing.assert_allclose(m.e_abs_p(3.0), 0.004560212779638627,
                                   rtol=1e-8)

    def test_tail_prob_brute(self):
        m = self._marg()
        for t in (0.05, 0.1, 0.2):
            grid = np.linspace(0.0, 1.0, 200001)
            want = np.mean(np.abs(1.0 / 6.0 - grid * grid / 2.0) > t)
            np.testing.assert_allclose(m.prob_abs_above(t), want, atol=2e-5)


class TestMemoizedSolves:
    """The delta solver and the beta terms ask a marginal for the same
    pieces and preimages at many thresholds; each is worked out once per
    marginal, and the answers keep their bits."""

    @staticmethod
    def _solve(model):
        part = model.linear_part
        return solve_delta_minimal(part).hex(), compute_beta(part).value.hex()

    def test_each_piece_cut_once(self, monkeypatch):
        # ustat-catalog's model: e_abs_min reads the pieces of p = 2 and of
        # p = 1 at each bisection step, which cut the same [y0, y1]
        spec = {"family": "ustat", "kernel": "variance",
                "dist": "std_normal", "n": 50}
        cut = []
        moments = BaseDist.centred_moments

        def counting(self, lo, hi):
            cut.append((lo, hi))
            return moments(self, lo, hi)

        monkeypatch.setattr(BaseDist, "centred_moments", counting)
        memo = self._solve(build_model(spec))
        assert len(cut) == len(set(cut)) == 54
        monkeypatch.setattr(QuadraticMarginal, "_moments",
                            QuadraticMarginal._moments.__wrapped__)
        assert self._solve(build_model(spec)) == memo
        assert len(cut) > 4 * 54

    def test_each_preimage_solved_once(self, monkeypatch):
        model = build_model({"family": "lstat", "weight": "identity",
                             "dist": "uniform01", "n": 400})
        marg = model.linear_part.groups[0][0]
        asked, roots = set(), []
        preimage, brentq = MonotoneMarginal._preimage, marginals.brentq

        def spy(self, y):
            if self._f_hi < y < self._f_lo:
                asked.add(y)
            return preimage(self, y)

        def counting(f, a, b, **kw):
            roots.append(brentq(f, a, b, **kw))
            return roots[-1]

        monkeypatch.setattr(MonotoneMarginal, "_preimage", spy)
        monkeypatch.setattr(marginals, "brentq", counting)
        memo = self._solve(model)
        assert len(roots) == len(asked)
        assert roots.count(marg._zero()) == 1
        monkeypatch.setattr(MonotoneMarginal, "_preimage",
                            preimage.__wrapped__)
        fresh = build_model({"family": "lstat", "weight": "identity",
                             "dist": "uniform01", "n": 400})
        assert self._solve(fresh) == memo


# (id, build) for each marginal the catalog builds at a scale: build(s) is
# the marginal of s g, with g of unit variance
SCALED_BUILDERS = (
    [(f"linear-{name}", functools.partial(_unit_marginal, name))
     for name in DIST_CATALOG]
    + [(f"{kernel}-{name}", functools.partial(
        KERNEL_CATALOG[kernel].g_std_marginal, DIST_CATALOG[name]))
       for kernel, name in (("sum", "uniform01"), ("variance", "std_normal"),
                            ("variance", "uniform01"),
                            ("variance", "exponential1"))])


class TestScaleEquivariance:
    """A marginal built at scale s is the law of s g: its moments scale by
    s^p and its tail at s t is the unit tail at t. A quadrature-tier moment
    is exact to QUAD_EPSABS absolute, which at small s is more than 1e-12
    of it (ExpCenteredMarginal's E|g|^3 I(|g| <= 0.05 t) at 1e-5 carries
    an error near 1e-14); the variance kernel's projection is closed form
    at these p and holds to 1e-12 relative alone."""

    @pytest.mark.parametrize("build", [b for _, b in SCALED_BUILDERS],
                             ids=[name for name, _ in SCALED_BUILDERS])
    @pytest.mark.parametrize("s", [0.05, 0.5, 3.0])
    def test_built_at_scale(self, build, s):
        unit, scaled = build(1.0), build(s)
        assert type(scaled) is type(unit)
        atol = QUAD_EPSABS if isinstance(unit, ExpCenteredMarginal) else 0.0
        for p in (1.0, 2.0, 3.0):
            np.testing.assert_allclose(scaled.e_abs_p(p),
                                       s ** p * unit.e_abs_p(p),
                                       rtol=1e-12, atol=atol)
            for t in (0.3, 1.0, 2.5):
                np.testing.assert_allclose(
                    scaled.e_abs_p_below(p, s * t),
                    s ** p * unit.e_abs_p_below(p, t), rtol=1e-12, atol=atol)
        for t in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(scaled.prob_abs_above(s * t),
                                       unit.prob_abs_above(t), rtol=1e-12)


class TestLinearPart:
    def test_beta_normal_oracle(self):
        lp = LinearPart([(NormalMarginal(0.1), 100)])
        np.testing.assert_allclose(lp.beta_terms(), 0.15957691216057304,
                                   rtol=1e-10)

    def test_l_of_monotone_and_limit(self):
        lp = LinearPart([(NormalMarginal(0.2), 25)])
        values = [lp.l_of(d) for d in (0.01, 0.1, 1.0, 10.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        np.testing.assert_allclose(values[-1], lp.sum_e2(), rtol=1e-9)

    def test_trunc_sum_right_continuous_at_atom(self):
        lp = LinearPart([(AtomMarginal.rademacher(0.1), 100)])
        assert lp.trunc_sum(0.1) == 0.0
        np.testing.assert_allclose(lp.trunc_sum(0.0999), 1.0, rtol=1e-12)

    def test_mixed_groups_aggregate(self):
        lp = LinearPart([(NormalMarginal(0.1), 50),
                         (UniformMarginal(math.sqrt(3) * 0.1), 50)])
        np.testing.assert_allclose(lp.sum_e2(), 1.0, rtol=1e-10)
        val, _se = lp.sum_abs_p(3.0)
        want = 50 * 0.1 ** 3 * E_ABS_Z3 + 50 * (math.sqrt(3) * 0.1) ** 3 / 4.0
        np.testing.assert_allclose(val, want, rtol=1e-10)
