"""Closed-form application bounds and the counterexample report."""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from belab.app_bounds import (
    ALPHA_SERIES_A,
    ALPHA_SERIES_B,
    ISQRT_MEAN,
    CounterexampleReport,
    LStatBoundInputs,
    MultiBoundInputs,
    UStatBoundInputs,
    alpha_scale,
    bg_bracket_47,
    counterexample_report,
    coupling_gini,
    ks_lower_bound,
    lstat_310,
    lstat_311,
    multisample_37,
    multisample_38,
    shorack_rhs_46,
    ustat_nonuniform_33,
    ustat_nonuniform_34,
    ustat_nonuniform_36,
    ustat_normal_32,
    ustat_uniform_31,
)
from belab.errors import DegenerateModelError, DomainError
from belab.marginals import normal_abs_moment
from belab.models import UStatSpec, build_model, ustat_moments
from oracles import alpha_quadrature


def variance_inputs(n=50, p=3.0, scale=1.0):
    """Bound inputs for the variance kernel under the standard normal,
    optionally with the kernel rescaled by a positive constant."""
    mom = ustat_moments(UStatSpec("variance", "std_normal", n), p)
    return UStatBoundInputs(
        m=2, n=n, sigma=scale * mom["sigma"], sigma1=scale * mom["sigma1"],
        e_abs_g_p=scale ** p * mom["e_abs_g_p"], p=p,
        c0_trunc=mom["c0_trunc"], e_abs_h_p=scale ** p * mom["e_abs_h_p"])


def wilcoxon_inputs(n1=1000, n2=1000, p=3.0):
    return build_model({"family": "multisample", "kernel": "wilcoxon",
                        "dist": "uniform01", "n": [n1, n2]}).bound_inputs(p)


def lstat_inputs(n=400, p=3.0):
    model = build_model({"family": "lstat", "weight": "identity",
                         "dist": "uniform01", "n": n})
    return LStatBoundInputs(c_lip=1.0, x2_moment=model.x2_moment,
                            sigma=model.sigma,
                            e_abs_g_p=model.influence_abs_moment(p), p=p, n=n)


class TestInputValidation:
    def test_ustat_degree_window(self):
        mom = ustat_moments(UStatSpec("variance", "std_normal", 50))
        base = dict(sigma=mom["sigma"], sigma1=mom["sigma1"],
                    e_abs_g_p=mom["e_abs_g_p"], p=3.0,
                    c0_trunc=mom["c0_trunc"], e_abs_h_p=mom["e_abs_h_p"])
        with pytest.raises(DomainError):
            UStatBoundInputs(m=1, n=50, **base)
        with pytest.raises(DomainError):
            UStatBoundInputs(m=50, n=50, **base)
        with pytest.raises(DegenerateModelError):
            UStatBoundInputs(m=2, n=50, sigma=1.0, sigma1=0.0,
                             e_abs_g_p=1.0, p=3.0, c0_trunc=1.0,
                             e_abs_h_p=1.0)

    def test_p_window(self):
        for bad in (2.0, 3.5, 1.0):
            with pytest.raises(DomainError):
                variance_inputs(p=bad)
        variance_inputs(p=2.5)
        variance_inputs(p=3.0)

    def test_multi_validation(self):
        with pytest.raises(DegenerateModelError):
            MultiBoundInputs(sigma=0.5, sn=0.0, m=(1, 1), n=(10, 10),
                             e_abs_h_p=(1.0, 1.0), p=3.0)
        with pytest.raises(DomainError):
            MultiBoundInputs(sigma=0.5, sn=0.1, m=(1, 1), n=(10, 10),
                             e_abs_h_p=(1.0,), p=3.0)

    def test_lstat_validation(self):
        with pytest.raises(DomainError):
            LStatBoundInputs(c_lip=1.0, x2_moment=0.25, sigma=0.1,
                             e_abs_g_p=0.01, p=3.0, n=3)
        with pytest.raises(DegenerateModelError):
            LStatBoundInputs(c_lip=1.0, x2_moment=0.25, sigma=0.0,
                             e_abs_g_p=0.01, p=3.0, n=10)


class TestUStatBounds:
    def test_eq31_frozen(self):
        b = ustat_uniform_31(variance_inputs())
        np.testing.assert_allclose(b.known, 0.858009901926774, rtol=1e-6)
        assert b.c_coeff == 0.0

    def test_eq31_first_term_formula(self):
        inp = variance_inputs()
        first = ((1 + math.sqrt(2)) * (inp.m - 1) * inp.sigma
                 / (math.sqrt(inp.m * (inp.n - inp.m + 1)) * inp.sigma1))
        np.testing.assert_allclose(first, 0.4877447946247278, rtol=1e-12)
        np.testing.assert_allclose(
            ustat_uniform_31(inp).known - first,
            inp.c0_trunc / math.sqrt(inp.n), rtol=1e-12)

    def test_eq32_frozen(self):
        b = ustat_normal_32(variance_inputs())
        np.testing.assert_allclose(b.known, 3.138671479956007, rtol=1e-9)

    def test_eq33_formula(self):
        inp = variance_inputs()
        b = ustat_nonuniform_33(inp, 2.0)
        known = (9 * inp.m * inp.sigma ** 2
                 / (9.0 * (inp.n - inp.m + 1) * inp.sigma1 ** 2)
                 + 13.5 * math.exp(-2.0 / 3.0) * math.sqrt(inp.m) * inp.sigma
                 / (math.sqrt(inp.n - inp.m + 1) * inp.sigma1))
        np.testing.assert_allclose(b.known, known, rtol=1e-12)
        np.testing.assert_allclose(b.known, 2.9638651958426157, rtol=1e-12)
        np.testing.assert_allclose(b.c_coeff, 0.016095486856899086,
                                   rtol=1e-12)
        g_term = inp.e_abs_g_p / (27.0 * math.sqrt(50.0) * inp.sigma1 ** 3)
        np.testing.assert_allclose(b.c_coeff, g_term, rtol=1e-12)

    def test_eq34_structure(self):
        b = ustat_nonuniform_34(variance_inputs(), 2.0)
        assert b.known == 0.0
        np.testing.assert_allclose(b.c_coeff, 0.20004390807860295, rtol=1e-12)
        assert not b.verifiable

    def test_eq36_window(self):
        inp = variance_inputs()
        b = ustat_nonuniform_36(inp, 2.0)
        assert b.known == 0.0
        np.testing.assert_allclose(b.c_coeff, 0.04602593262140904, rtol=1e-12)
        limit = math.sqrt((50 - 2 + 1) / 2.0)
        ustat_nonuniform_36(inp, limit - 1e-9)
        for z in (limit + 1e-9, -(limit + 1e-9)):
            with pytest.raises(DomainError):
                ustat_nonuniform_36(inp, z)

    def test_kernel_scale_invariance(self):
        # rescaling h by a constant leaves every bound unchanged
        base = variance_inputs()
        for c in (0.1, 7.3):
            scaled = variance_inputs(scale=c)
            np.testing.assert_allclose(ustat_uniform_31(scaled).known,
                                       ustat_uniform_31(base).known,
                                       rtol=1e-12)
            np.testing.assert_allclose(ustat_normal_32(scaled).known,
                                       ustat_normal_32(base).known,
                                       rtol=1e-12)
            for z in (0.5, 3.0):
                for fn in (ustat_nonuniform_33, ustat_nonuniform_34,
                           ustat_nonuniform_36):
                    a, b = fn(base, z), fn(scaled, z)
                    np.testing.assert_allclose(b.known, a.known, rtol=1e-12)
                    np.testing.assert_allclose(b.c_coeff, a.c_coeff,
                                               rtol=1e-12)

    def test_monotone_in_n(self):
        vals = [ustat_uniform_31(variance_inputs(n)).known
                for n in (50, 200, 1000, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals = [ustat_normal_32(variance_inputs(n)).known
                for n in (50, 200, 1000, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonuniform_decay_in_z(self):
        inp = variance_inputs()
        zs = (0.0, 0.5, 1.5, 3.0, 4.5)
        known = [ustat_nonuniform_33(inp, z).known for z in zs]
        assert all(a > b for a, b in zip(known, known[1:]))
        coeff = [ustat_nonuniform_33(inp, z).c_coeff for z in zs]
        # exact (1 + |z|)^(-p) law for the constant-multiplied part
        for z, c in zip(zs, coeff):
            np.testing.assert_allclose(c * (1 + z) ** 3.0, coeff[0],
                                       rtol=1e-12)

    def test_z_symmetry(self):
        inp = variance_inputs()
        a = ustat_nonuniform_33(inp, 1.7)
        b = ustat_nonuniform_33(inp, -1.7)
        assert a.known == b.known and a.c_coeff == b.c_coeff


class TestMultisampleBounds:
    def test_eq37_frozen(self):
        b = multisample_37(wilcoxon_inputs())
        np.testing.assert_allclose(b.known, 0.3787168540624487, rtol=1e-12)
        assert b.verifiable

    def test_eq37_formula(self):
        inp = wilcoxon_inputs(200, 300)
        ratio = sum(m * m / n for m, n in zip(inp.m, inp.n))
        first = (1 + math.sqrt(2)) * (inp.sigma / inp.sn) * ratio
        second = 6.6 / inp.sn ** 3 * sum(
            m ** 3 * e / n ** 2
            for m, n, e in zip(inp.m, inp.n, inp.e_abs_h_p))
        np.testing.assert_allclose(multisample_37(inp).known, first + second,
                                   rtol=1e-12)

    def test_eq38_frozen_and_decay(self):
        b = multisample_38(wilcoxon_inputs(), 1.5)
        np.testing.assert_allclose(b.known, 0.6428924488884312, rtol=1e-12)
        np.testing.assert_allclose(b.c_coeff, 0.00185903200617956, rtol=1e-12)
        c0 = multisample_38(wilcoxon_inputs(), 0.0).c_coeff
        c3 = multisample_38(wilcoxon_inputs(), 3.0).c_coeff
        np.testing.assert_allclose(c3 * 4.0 ** 3.0, c0, rtol=1e-12)

    def test_more_data_tightens(self):
        small = multisample_37(wilcoxon_inputs(100, 100)).known
        big = multisample_37(wilcoxon_inputs(1000, 1000)).known
        assert big < small


class TestLStatBounds:
    def test_eq310_frozen_split(self):
        b = lstat_310(lstat_inputs())
        np.testing.assert_allclose(b.known, 0.8873696880247477, rtol=1e-9)
        inp = lstat_inputs()
        first = ((1 + math.sqrt(2)) * inp.c_lip * math.sqrt(inp.x2_moment)
                 / (math.sqrt(inp.n) * inp.sigma))
        np.testing.assert_allclose(first, 0.4675104460629539, rtol=1e-9)
        np.testing.assert_allclose(b.known - first, 0.4198592419617938,
                                   rtol=1e-9)

    def test_eq311_formula(self):
        inp = lstat_inputs()
        b = lstat_311(inp, 2.0)
        known = (9 * inp.c_lip ** 2 * inp.x2_moment
                 / (9.0 * inp.n * inp.sigma ** 2))
        np.testing.assert_allclose(b.known, known, rtol=1e-12)
        np.testing.assert_allclose(b.known, 0.0375, rtol=1e-9)
        np.testing.assert_allclose(b.c_coeff, 0.009721427823649398,
                                   rtol=1e-9)

    def test_root_n_scaling(self):
        a = lstat_310(lstat_inputs(100)).known
        b = lstat_310(lstat_inputs(400)).known
        np.testing.assert_allclose(a / b, 2.0, rtol=1e-9)


class TestComparisonRHS:
    def test_shorack_arithmetic(self):
        got = shorack_rhs_46(e_w_delta=0.01, e_delta=0.02, linear_ks=0.003)
        np.testing.assert_allclose(got, 0.003 + 4 * 0.01 + 4 * 0.02,
                                   rtol=1e-14)

    def test_bg_arithmetic(self):
        got = bg_bracket_47(e_delta=0.02, sum_g3=0.005, alpha=1e-4)
        np.testing.assert_allclose(got, 0.02 + 0.005 + 0.01, rtol=1e-14)


class TestCouplingGini:
    def test_zero_offset_frozen(self):
        np.testing.assert_allclose(coupling_gini(0.0), 1.2598753249213093,
                                   rtol=1e-10)

    def test_zero_offset_independent_route(self):
        # mean absolute difference of iid copies of A = |Z|^(-1/2):
        # 2 int F_A (1 - F_A) with F_A(t) = 2 Phi(-t^(-2))
        def f_a(t):
            return 2.0 * ndtr(-t ** -2.0)

        # split at 50: the integrand has a 1/t^2 tail that a finite cutoff
        # would clip by about 4 phi(0) / cutoff
        lo, _ = integrate.quad(lambda t: 2 * f_a(t) * (1 - f_a(t)), 0, 50,
                               limit=300)
        hi, _ = integrate.quad(lambda t: 2 * f_a(t) * (1 - f_a(t)), 50,
                               float("inf"), limit=300)
        np.testing.assert_allclose(coupling_gini(0.0), lo + hi, rtol=1e-10)

    def test_large_offset_asymptote(self):
        # ~ r^(-3/2) E|S - S'| / 2 = r^(-3/2) / sqrt(pi)
        r = 200.0
        want = r ** -1.5 / math.sqrt(math.pi)
        np.testing.assert_allclose(coupling_gini(r), want, rtol=1e-2)

    def test_symmetric_in_sign_free_form(self):
        # integral only sees r through |r + x|; spot a midrange value
        np.testing.assert_allclose(coupling_gini(200.0),
                                   0.0001994789327018452, rtol=1e-10)


class TestAlphaScale:
    def test_series_constants(self):
        a_want = (4 * math.sqrt(2) * 2 ** 0.25 * normal_abs_moment(0.5)
                  / math.sqrt(2 * math.pi))
        b_want = 2.0 / math.sqrt(math.pi) * normal_abs_moment(0.5)
        np.testing.assert_allclose(ALPHA_SERIES_A, a_want, rtol=1e-12)
        np.testing.assert_allclose(ALPHA_SERIES_B, b_want, rtol=1e-12)

    def test_crossover_agreement(self):
        # quadrature at the switch point vs the series continuation
        quad_side = alpha_scale(1e-4)
        series_side = ALPHA_SERIES_A - ALPHA_SERIES_B * math.sqrt(1e-4)
        # a 30-digit mpmath evaluation of the nested integral gives
        # 2.197248007647550539698758
        np.testing.assert_allclose(quad_side, 2.1972480076475507, rtol=1e-12)
        assert abs(quad_side - series_side) < 5e-9

    def test_quadrature_branch_frozen(self):
        np.testing.assert_allclose(alpha_scale(0.0025), 2.1601394753883536,
                                   rtol=1e-9)

    def test_monotone_decreasing_in_nu(self):
        vals = [alpha_scale(nu) for nu in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(DomainError):
                alpha_scale(bad)

    def test_alpha_quadrature_scaling(self):
        # alpha = eps sqrt(nu) scale(nu) with nu = 1/sqrt(n)
        nu = 1.0 / math.sqrt(10000)
        want = 0.01 * math.sqrt(nu) * alpha_scale(nu)
        np.testing.assert_allclose(alpha_quadrature(0.01, 10000), want,
                                   rtol=1e-12)
        assert alpha_quadrature(0.0, 100) == 0.0
        with pytest.raises(DomainError):
            alpha_quadrature(-0.01, 100)
        with pytest.raises(DomainError):
            alpha_quadrature(0.01, 1)


class TestCounterexampleReport:
    # (epsilon, lhs_exact, lhs_floor, shorack_rhs, bg_bracket,
    #  ratio_shorack, ratio_bg, alpha); alpha at 1e-2 (and with it
    # bg_bracket and ratio_bg) comes from the 30-digit mpmath value of
    # alpha_scale(1e-4), the other alphas from the series branch
    TABLE = (
        (1e-2, 0.011648825539281038, 0.007735981389354632,
         0.06104419882054091, 0.02422499636141936, 0.19082608608766435,
         0.48085974360899864, 0.00021972480076475507),
        (5e-3, 0.008232460157066024, 0.004873362897021445,
         0.030522099410270453, 0.012080423160527994, 0.26972129427951025,
         0.6814711742851077, 5.5047166364969506e-05),
        (1e-3, 0.003303144025452176, 0.001666666666666667,
         0.006104419882054091, 0.002410951443525505, 0.5411069502546559,
         1.3700582955839329, 2.2055975730330962e-06),
        (1e-4, 0.0007908731608963215, 0.00035907244833864745,
         0.0006104419882054091, 0.00024097963311559386, 1.2955746429261001,
         3.2819087267717477, 2.206432529680817e-08),
        (1e-5, 0.00017831047047245363, 7.735981389354635e-05,
         6.104419882054092e-05, 2.409680816993695e-05, 2.921005991030445,
         7.399754739920819, 2.2065160253455897e-10),
        (1e-6, 3.9208015346070546e-05, 1.6666666666666674e-05,
         6.104419882054091e-06, 2.4096692655482236e-06, 6.422889660872631,
         16.27111898991264, 2.2065243749120663e-12),
    )

    def _reports(self):
        return counterexample_report(tuple(row[0] for row in self.TABLE))

    def test_frozen_table(self):
        for rep, row in zip(self._reports(), self.TABLE):
            got = (rep.epsilon, rep.lhs_exact, rep.lhs_floor,
                   rep.shorack_rhs, rep.bg_bracket, rep.ratio_shorack,
                   rep.ratio_bg, rep.alpha)
            np.testing.assert_allclose(got, row, rtol=1e-12)

    def test_lower_bound_always_clears_floor(self):
        for rep in self._reports():
            assert rep.lhs_exact >= rep.lhs_floor
            np.testing.assert_allclose(
                rep.lhs_floor, rep.epsilon ** (2.0 / 3.0) / 6.0, rtol=1e-12)

    def test_ratios_are_quotients(self):
        for rep in self._reports():
            np.testing.assert_allclose(rep.ratio_shorack,
                                       rep.lhs_exact / rep.shorack_rhs,
                                       rtol=1e-12)
            np.testing.assert_allclose(rep.ratio_bg,
                                       rep.lhs_exact / rep.bg_bracket,
                                       rtol=1e-12)

    def test_shorack_rhs_is_linear_in_epsilon(self):
        reps = self._reports()
        np.testing.assert_allclose(reps[0].shorack_rhs / reps[2].shorack_rhs,
                                   10.0, rtol=1e-9)

    def test_bg_per_decade_growth(self):
        # ratio_bg grows close to 10^(1/3) per decade of epsilon
        reps = {r.epsilon: r for r in self._reports()}
        target = 10.0 ** (1.0 / 3.0)
        for hi, lo in ((1e-3, 1e-4), (1e-4, 1e-5), (1e-5, 1e-6)):
            factor = reps[lo].ratio_bg / reps[hi].ratio_bg
            assert 0.8 * target <= factor <= 1.2 * target

    def test_coupled_sample_size(self):
        for rep in self._reports():
            np.testing.assert_allclose(rep.n, rep.epsilon ** -4.0, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            counterexample_report((1.0 / 32.0,))
        with pytest.raises(DomainError):
            counterexample_report((0.0,))
        with pytest.raises(DomainError):
            counterexample_report((1.0 / 64.0,))

    def test_report_invariant(self):
        with pytest.raises(DomainError):
            CounterexampleReport(epsilon=1e-3, lhs_exact=0.0, lhs_floor=1e-4,
                                 shorack_rhs=1e-3, bg_bracket=1e-3,
                                 ratio_shorack=0.0, ratio_bg=0.0,
                                 alpha=1e-6, n=1e12)


class TestReExports:
    def test_pinch_lower_bound_available(self):
        np.testing.assert_allclose(ks_lower_bound(1e-3),
                                   0.003303144025452176, rtol=1e-12)
        np.testing.assert_allclose(ISQRT_MEAN, 1.7200799746490392, rtol=1e-15)
