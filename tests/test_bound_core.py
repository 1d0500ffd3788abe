"""Delta constructions, beta, and the uniform/non-uniform bound assembly."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belab import cli
from belab.bound_core import (
    chebyshev_baseline,
    check_normalization,
    compute_beta,
    delta_from_p_moment,
    delta_from_truncation,
    linear_baseline,
    nonuniform_bound_thm22,
    nonuniform_moment_bound,
    nonuniform_tau,
    solve_delta_minimal,
    uniform_bound_beta,
    uniform_bound_normal,
    uniform_bound_thm21,
)
from belab.errors import DomainError, InvalidModelError
from belab.marginals import (
    AtomMarginal,
    ExpCenteredMarginal,
    LinearPart,
    NormalMarginal,
    UniformMarginal,
)
from belab.types import BoundComponents, MomentEstimate


def catalog_parts():
    """Normalized linear parts spanning every marginal family in the catalog."""
    parts = {
        "normal100": LinearPart([(NormalMarginal(0.1), 100)]),
        "rademacher100": LinearPart([(AtomMarginal.rademacher(0.1), 100)]),
        "uniform48": LinearPart(
            [(UniformMarginal(math.sqrt(3.0 / 48.0)), 48)]),
        "exp64": LinearPart([(ExpCenteredMarginal(1.0 / 8.0), 64)]),
        "mixed": LinearPart([(NormalMarginal(0.1), 50),
                             (UniformMarginal(math.sqrt(3.0) * 0.1), 50)]),
    }
    from belab.models import build_model
    parts["ustat_var50"] = build_model(
        {"family": "ustat", "kernel": "variance", "dist": "std_normal",
         "n": 50}).linear_part
    parts["wilcoxon"] = build_model(
        {"family": "multisample", "kernel": "wilcoxon", "dist": "uniform01",
         "n": [200, 300]}).linear_part
    parts["lstat45"] = build_model(
        {"family": "lstat", "weight": "identity", "dist": "uniform01",
         "n": 45}).linear_part
    return parts


class TestBeta:
    def test_normal_100_frozen(self):
        beta = compute_beta(LinearPart([(NormalMarginal(0.1), 100)]))
        np.testing.assert_allclose(beta.value, 0.15957691216057304,
                                   rtol=1e-10)
        assert beta.std_error == 0.0
        assert beta.replicates == 0

    def test_bounded_terms_reduce_to_third_moments(self):
        # every |g_i| = 0.1 <= 1, so the truncated-square piece vanishes
        beta = compute_beta(LinearPart([(AtomMarginal.rademacher(0.1), 100)]))
        np.testing.assert_allclose(beta.value, 100 * 0.1 ** 3, rtol=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(InvalidModelError):
            check_normalization(LinearPart([(NormalMarginal(0.2), 100)]))


class TestDeltaMinimal:
    def test_satisfies_and_is_minimal_across_catalog(self):
        tol = 1e-6
        for name, lp in catalog_parts().items():
            d = solve_delta_minimal(lp, tolerance=tol)
            assert lp.l_of(d) >= 0.5, name
            assert lp.l_of(d * (1 - 2 * tol)) < 0.5, name

    def test_normal_100_frozen(self):
        lp = LinearPart([(NormalMarginal(0.1), 100)])
        d = solve_delta_minimal(lp)
        # continuous-root value 0.06744897501960817, solver keeps the
        # satisfying end of a rel-1e-6 bracket
        np.testing.assert_allclose(d, 0.06744897501960817, atol=2e-7)

    def test_rademacher_exact_kink(self):
        # L(d) = 10 min(d, 0.1) crosses 1/2 exactly at d = 0.05
        lp = LinearPart([(AtomMarginal.rademacher(0.1), 100)])
        d = solve_delta_minimal(lp, tolerance=1e-9)
        np.testing.assert_allclose(d, 0.05, rtol=1e-8)

    def test_bad_tolerance(self):
        lp = LinearPart([(NormalMarginal(0.1), 100)])
        with pytest.raises(DomainError):
            solve_delta_minimal(lp, tolerance=0.0)


class TestDeltaFromPMoment:
    def test_p3_closed_form(self):
        # factor 2 (p-2)^(p-2)/(p-1)^(p-1) = 1/2 at p = 3
        np.testing.assert_allclose(delta_from_p_moment(3.0, 0.1), 0.05,
                                   rtol=1e-14)

    def test_satisfies_capped_condition_across_catalog(self):
        for name, lp in catalog_parts().items():
            sum_p, _ = lp.sum_abs_p(3.0)
            d = delta_from_p_moment(3.0, sum_p)
            assert lp.l_of(d) >= 0.5 - 1e-9, name

    def test_accepts_p_above_3(self):
        # formula extends past the stated range; monotone in the moment
        lo = delta_from_p_moment(4.0, 0.01)
        hi = delta_from_p_moment(4.0, 0.04)
        np.testing.assert_allclose(hi / lo, 2.0, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_from_p_moment(2.0, 0.1)
        with pytest.raises(DomainError):
            delta_from_p_moment(3.0, 0.0)


class TestDeltaFromTruncation:
    def test_single_normal_frozen(self):
        lp = LinearPart([(NormalMarginal(1.0), 1)])
        d = delta_from_truncation(lp)
        # root of E Z^2 I(|Z| > d) = 1/2
        np.testing.assert_allclose(d, 1.5381722544550522, atol=4e-9)

    def test_atom_jump_is_satisfying(self):
        # coin flips at +-0.1: the strict indicator empties at d = 0.1
        lp = LinearPart([(AtomMarginal.rademacher(0.1), 100)])
        d = delta_from_truncation(lp)
        np.testing.assert_allclose(d, 0.1, rtol=1e-8)
        assert lp.trunc_sum(d) <= 0.5

    def test_satisfies_and_minimal_across_catalog(self):
        tol = 1e-9
        for name, lp in catalog_parts().items():
            d = delta_from_truncation(lp, tolerance=tol)
            assert lp.trunc_sum(d) <= 0.5, name
            assert lp.trunc_sum(d * (1 - 3 * tol)) > 0.5, name


class TestCappedMomentInequality:
    """min(a, b) >= a - (p-2)^(p-2) a^(p-1) / ((p-1)^(p-1) b^(p-2))."""

    @given(a=st.floats(1e-6, 1e6), b=st.floats(1e-6, 1e6),
           p=st.floats(2.001, 3.0))
    @settings(max_examples=400, deadline=None)
    def test_pointwise(self, a, b, p):
        rhs = a - ((p - 2) ** (p - 2) * a ** (p - 1)
                   / ((p - 1) ** (p - 1) * b ** (p - 2)))
        assert min(a, b) >= rhs - 1e-12 * max(a, b)

    def test_equality_never_strictly_above(self):
        # at a = b the slack is exactly c_p a with c_p in (0, 1)
        for p in (2.2, 2.7, 3.0):
            c_p = (p - 2) ** (p - 2) / (p - 1) ** (p - 1)
            assert 0.0 < c_p < 1.0


ZERO = MomentEstimate(0.0)


class TestUniformAssembly:
    COMPS = BoundComponents(
        e_abs_w_delta=MomentEstimate(0.3, 0.002, 1000),
        sum_g_delta_diff=MomentEstimate(0.2, 0.003, 1000), delta_abs=ZERO,
        beta=MomentEstimate(0.12, 0.001, 1000),
        delta=MomentEstimate(0.05, 0.0005, 1000))

    def test_thm21_arithmetic(self):
        b = uniform_bound_thm21(self.COMPS)
        np.testing.assert_allclose(b.known, 4 * 0.05 + 0.3 + 0.2, rtol=1e-14)
        np.testing.assert_allclose(b.known_se, 4 * 0.0005 + 0.002 + 0.003,
                                   rtol=1e-14)
        assert b.c_coeff == 0.0
        assert b.verifiable

    def test_beta_arithmetic(self):
        b = uniform_bound_beta(self.COMPS)
        np.testing.assert_allclose(b.known, 2 * 0.12 + 0.3 + 0.2, rtol=1e-14)

    def test_normal_exceeds_beta_by_exactly_41_beta(self):
        lo = uniform_bound_beta(self.COMPS)
        hi = uniform_bound_normal(self.COMPS)
        np.testing.assert_allclose(hi.known - lo.known, 4.1 * 0.12,
                                   rtol=1e-12)
        np.testing.assert_allclose(hi.known_se - lo.known_se, 4.1 * 0.001,
                                   rtol=1e-12)

    def test_missing_pieces_raise(self):
        with pytest.raises(DomainError):
            uniform_bound_thm21(BoundComponents(
                ZERO, ZERO, ZERO, beta=MomentEstimate(0.1)))
        with pytest.raises(DomainError):
            uniform_bound_normal(BoundComponents(
                ZERO, ZERO, ZERO, delta=MomentEstimate(0.1)))


class TestBaselines:
    def test_linear_baseline_is_41_beta(self):
        lp = LinearPart([(NormalMarginal(0.1), 100)])
        b = linear_baseline(lp)
        np.testing.assert_allclose(b.known, 4.1 * compute_beta(lp).value,
                                   rtol=1e-12)

    def test_chebyshev_arithmetic(self):
        b = chebyshev_baseline(0.02, 0.0001, 1.0)
        np.testing.assert_allclose(b.known, 0.02 + 2 * 0.01, rtol=1e-14)
        with pytest.raises(DomainError):
            chebyshev_baseline(0.02, 0.0001, 0.0)
        with pytest.raises(DomainError):
            chebyshev_baseline(-0.1, 0.0001, 1.0)


class TestNonUniformAssembly:
    def test_gamma_sums_tails(self):
        # the runner's eq2.6 row: gamma_z is the sampled Delta tail plus the
        # analytic g_i and W - g_i tails, and only the first carries an error
        z = 2.0
        cfg = cli.parse_config(json.dumps({
            "model": {"family": "ustat", "kernel": "variance",
                      "dist": "std_normal", "n": 20},
            "bounds": ["eq2.6"], "z_grid": [z],
            "mc": {"master_seed": 3, "replicates": 3000}}))
        r = cli._Runner(cfg, verify=False)
        comps = r.sampled[2]["resample"]
        tail = comps.delta_tails[1.0]
        g_tail = r.linear.sum_prob_above(1.0)
        assert g_tail > 0.0 and r.third_terms[z] > 0.0
        tau = nonuniform_tau(comps.as_bound_components(r.beta, r.delta_min))
        b = cli.TAGS["eq2.6"].build(r, comps, z)
        weight = math.exp(-z / 3.0)
        np.testing.assert_allclose(
            b.known - weight * tau.value,
            tail.value + g_tail + r.third_terms[z], rtol=1e-12)
        assert b.known_se == tail.std_error + weight * tau.std_error

    def test_tau_arithmetic(self):
        c = BoundComponents(ZERO, ZERO, ZERO,
                            delta_l2=MomentEstimate(0.02, 1e-3, 500),
                            sum_g_l2_delta_l2=MomentEstimate(0.04),
                            delta=MomentEstimate(0.05))
        t = nonuniform_tau(c)
        np.testing.assert_allclose(
            t.value, 22 * 0.05 + 8.5 * 0.02 + 3.6 * 0.04, rtol=1e-14)
        np.testing.assert_allclose(t.std_error, 8.5e-3, rtol=1e-14)
        assert t.replicates == 500

    def test_thm22_combines_with_exp_weight(self):
        gamma = MomentEstimate(0.01, 0.0, 0)
        tau = MomentEstimate(2.0, 0.0, 0)
        for z in (-3.0, 0.0, 3.0):
            b = nonuniform_bound_thm22(gamma, tau, z)
            want = 0.01 + math.exp(-abs(z) / 3.0) * 2.0
            np.testing.assert_allclose(b.known, want, rtol=1e-14)
            assert b.c_coeff == 0.0 and b.verifiable
        sym_pos = nonuniform_bound_thm22(gamma, tau, 1.7).known
        sym_neg = nonuniform_bound_thm22(gamma, tau, -1.7).known
        assert sym_pos == sym_neg

    def test_moment_bound_split_and_decay(self):
        tail = MomentEstimate(0.01, 1e-3, 3000)
        b = nonuniform_moment_bound(3.0, 2.0, tail, 0.1, 0.2, 0.3)
        np.testing.assert_allclose(b.known, 0.01, rtol=1e-14)
        assert b.known_se == 1e-3
        np.testing.assert_allclose(b.c_coeff, 3.0 ** -3 * 0.6, rtol=1e-14)
        assert not b.verifiable
        # exact (1+|z|)^(-p) scaling of the C-multiplied part
        b1 = nonuniform_moment_bound(2.5, 1.0, ZERO, 0.1, 0.2, 0.3)
        b2 = nonuniform_moment_bound(2.5, 4.0, ZERO, 0.1, 0.2, 0.3)
        np.testing.assert_allclose(b1.c_coeff / b2.c_coeff,
                                   (5.0 / 2.0) ** 2.5, rtol=1e-12)

    def test_moment_bound_domain(self):
        with pytest.raises(DomainError):
            nonuniform_moment_bound(3.5, 1.0, ZERO, 0.1, 0.1, 0.1)
        with pytest.raises(DomainError):
            nonuniform_moment_bound(3.0, 1.0, MomentEstimate(1.5), 0.1, 0.1,
                                    0.1)
