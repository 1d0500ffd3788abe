"""Perturbed-normal counterexample model: closed forms against MC."""
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from belab.errors import DomainError
from belab.mc_engine import SeedSpec
from belab.models import Example41Spec, IsqrtModel, example41_transform
from belab.models.isqrt import (
    ISQRT_MEAN,
    delta_abs_moment,
    isqrt_delta,
    ks_lower_bound,
    w_delta_abs_moment,
)
from oracles import alpha_quadrature, example41_alpha


MODES = ("zero_out", "resample")


def chunk_and_draws(model, seed, count, mode):
    """A chunk and what it consumed, redrawn from a second copy of the same
    substream: the rest-of-sum block r, the X_1 block, then the replacement
    X_1 (zeros in zero_out mode). Both streams must end in the same state."""
    rng_a, rng_b = SeedSpec(seed).substream(0), SeedSpec(seed).substream(0)
    chunk = model.sample_chunk(rng_a, count, mode=(mode,))
    n = model.n
    r = rng_b.standard_normal(count) * math.sqrt((n - 1) / n)
    x1 = rng_b.standard_normal(count) / math.sqrt(n)
    v = (np.zeros(count) if mode == "zero_out"
         else rng_b.standard_normal(count) / math.sqrt(n))
    assert rng_a.random() == rng_b.random()
    return chunk, r, x1, v


class TestConstants:
    def test_isqrt_mean_frozen(self):
        np.testing.assert_allclose(ISQRT_MEAN, 1.7200799746490392, rtol=1e-15)

    def test_isqrt_mean_by_quadrature(self):
        # E|Z|^(-1/2) = 2 int_0^inf z^(-1/2) phi(z) dz
        val, _ = integrate.quad(
            lambda z: z ** -0.5 * math.exp(-0.5 * z * z)
            / math.sqrt(2 * math.pi), 0, 12)
        np.testing.assert_allclose(ISQRT_MEAN, 2 * val, rtol=1e-9)

    def test_remainder_moments_frozen(self):
        np.testing.assert_allclose(delta_abs_moment(1.0),
                                   0.9242302342362695, rtol=1e-10)
        np.testing.assert_allclose(w_delta_abs_moment(),
                                   0.6018747362772532, rtol=1e-10)

    def test_remainder_moment_domain(self):
        for q in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(DomainError):
                delta_abs_moment(q)

    def test_remainder_moment_mc(self):
        rng = np.random.default_rng(91)
        w = rng.standard_normal(400000)
        vals = np.abs(isqrt_delta(w, 1.0))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        np.testing.assert_allclose(vals.mean(), delta_abs_moment(1.0),
                                   atol=4 * se)


class TestTransform:
    def test_point_value(self):
        np.testing.assert_allclose(example41_transform(1.0, 0.01),
                                   1.0072007997464904, rtol=1e-15)

    def test_zero_maps_to_minus_inf(self):
        assert example41_transform(0.0, 0.01) == -np.inf

    def test_formula_on_negative_branch(self):
        w, eps = -2.0, 0.05
        want = w - eps / math.sqrt(2.0) + eps * ISQRT_MEAN
        np.testing.assert_allclose(example41_transform(w, eps), want,
                                   rtol=1e-14)

    def test_delta_relationship(self):
        w = np.array([-1.5, 0.3, 2.0])
        eps = 0.02
        np.testing.assert_allclose(
            example41_transform(w, eps) - w, isqrt_delta(w, eps), rtol=1e-12)

    def test_remainder_is_centered(self):
        # E Delta = eps (ISQRT_MEAN - E|W|^(-1/2)) = 0
        rng = np.random.default_rng(92)
        w = rng.standard_normal(500000)
        d = isqrt_delta(w, 1.0)
        se = d.std(ddof=1) / math.sqrt(d.size)
        np.testing.assert_allclose(d.mean(), 0.0, atol=4 * se)


class TestKSLowerBound:
    def test_frozen_value(self):
        np.testing.assert_allclose(ks_lower_bound(1e-3),
                                   0.003303144025452176, rtol=1e-12)

    def test_floor_inequality(self):
        for eps in (1e-2, 1e-3, 1e-5):
            assert ks_lower_bound(eps) >= eps ** (2.0 / 3.0) / 6.0

    def test_domain(self):
        # needs eps^(2/3) > eps * ISQRT_MEAN, i.e. eps < ISQRT_MEAN^(-3)
        with pytest.raises(DomainError):
            ks_lower_bound(0.3)
        with pytest.raises(DomainError):
            ks_lower_bound(0.0)

    @pytest.mark.parametrize("eps", [1e-30, 1e-100, 1e-300])
    def test_tiny_epsilons_keep_the_leading_term(self, eps):
        # both cdf values lie within 1e-20 of 1/2, where a difference of
        # Phi values is 0; the erf form gives phi(0) (a - b) to rounding
        a, b = eps ** (2.0 / 3.0), eps * ISQRT_MEAN
        np.testing.assert_allclose(ks_lower_bound(eps),
                                   (a - b) / math.sqrt(2.0 * math.pi),
                                   rtol=1e-15)

    def test_smallest_epsilons_stay_positive(self):
        for eps in (1e-12, 1e-20, 1e-23):
            assert ks_lower_bound(eps) > 0.0

    def test_pinch_set_identity_mc(self):
        # {T <= eps c0} = {W <= eps^(2/3)}
        rng = np.random.default_rng(94)
        eps = 0.05
        model = IsqrtModel(Example41Spec(eps, 400))
        chunk = model.sample_chunk(rng, 300000)
        p_hat = float(np.mean(chunk["t"] <= eps * ISQRT_MEAN))
        want = float(ndtr(eps ** (2.0 / 3.0)))
        se = math.sqrt(want * (1 - want) / 300000)
        np.testing.assert_allclose(p_hat, want, atol=4 * se)


class TestSpec:
    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                Example41Spec(bad)
        Example41Spec(0.5)  # the type allows the full open interval

    def test_n_domain(self):
        with pytest.raises(DomainError):
            Example41Spec(0.01, n=1)


class TestModel:
    def test_statistic_and_split(self):
        model = IsqrtModel(Example41Spec(0.01, 100))
        for mode in MODES:
            chunk, r, x1, _v = chunk_and_draws(model, 99, 6, mode)
            np.testing.assert_allclose(chunk["t"],
                                       example41_transform(r + x1, 0.01),
                                       rtol=1e-14)
            np.testing.assert_allclose(chunk["delta"],
                                       isqrt_delta(r + x1, 0.01), rtol=1e-14)

    def test_w_is_exactly_standard_normal(self):
        model = IsqrtModel(Example41Spec(0.01, 100))
        assert model.linear_ks_exact() == 0.0
        rng = np.random.default_rng(95)
        chunk = model.sample_chunk(rng, 200000)
        np.testing.assert_allclose(chunk["w"].var(ddof=1), 1.0, atol=0.02)

    def test_leave_one_out_independence(self):
        # the variant depends only on the retained part r and the
        # replacement, never on the replaced X_1
        model = IsqrtModel(Example41Spec(0.02, 50))
        for mode in MODES:
            chunk, r, _x1, v = chunk_and_draws(model, 96, 6, mode)
            np.testing.assert_allclose(chunk["dvar_rep"][mode][:, 0],
                                       isqrt_delta(r + v, 0.02), rtol=1e-14)

    def test_per_index_terms_not_materialized(self):
        # X_1 is the only summand drawn; the other n - 1 enter through r
        model = IsqrtModel(Example41Spec(0.01, 100))
        for mode in MODES:
            chunk, _r, x1, _v = chunk_and_draws(model, 100, 6, mode)
            assert chunk["g_rep"].shape == (6, 1)
            np.testing.assert_allclose(chunk["g_rep"][:, 0], x1, rtol=1e-14)
        assert model.supports_delta_l2 is False

    def test_closed_form_component_means(self):
        # E|Delta| = eps delta_abs_moment(1), E|W Delta| = eps
        # w_delta_abs_moment(), checked against the chunk rows as well
        eps = 0.003
        e_abs_delta = eps * delta_abs_moment(1.0)
        e_abs_w_delta = eps * w_delta_abs_moment()
        np.testing.assert_allclose(e_abs_delta, 0.003 * 0.9242302342362695,
                                   rtol=1e-10)
        np.testing.assert_allclose(e_abs_w_delta, 0.003 * 0.6018747362772532,
                                   rtol=1e-10)
        model = IsqrtModel(Example41Spec(eps, 100))
        for mode in MODES:
            chunk, _r, _x1, _v = chunk_and_draws(model, 101, 40000, mode)
            for vals, want in ((np.abs(chunk["delta"]), e_abs_delta),
                               (np.abs(chunk["w"] * chunk["delta"]),
                                e_abs_w_delta)):
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                np.testing.assert_allclose(vals.mean(), want, atol=4 * se)

    def test_chunk_draw_order(self):
        rng_a = np.random.default_rng(97)
        rng_b = np.random.default_rng(97)
        model = IsqrtModel(Example41Spec(0.05, 25))
        chunk = model.sample_chunk(rng_a, 6, mode=("resample",))
        r = rng_b.standard_normal(6) * math.sqrt(24.0 / 25.0)
        x1 = rng_b.standard_normal(6) / 5.0
        v = rng_b.standard_normal(6) / 5.0
        np.testing.assert_allclose(chunk["w"], r + x1, rtol=1e-14)
        np.testing.assert_allclose(chunk["dvar_rep"]["resample"][:, 0],
                                   isqrt_delta(r + v, 0.05), rtol=1e-12)


class TestResampleCouplingAlpha:
    def test_mc_matches_quadrature(self):
        for eps, seed in ((0.05, 201), (0.04, 202), (0.03, 203)):
            n = round(eps ** -4)
            est = example41_alpha(Example41Spec(eps, n), 200000, seed)
            want = alpha_quadrature(eps, n)
            assert est.std_error > 0
            np.testing.assert_allclose(est.value, want,
                                       atol=4 * est.std_error)

    def test_zero_out_differs_from_resample(self):
        # same seed, different coupling: zero_out pins v = 0
        spec = Example41Spec(0.05, 100)
        model = IsqrtModel(spec)
        rng = np.random.default_rng(98)
        chunk = model.sample_chunk(rng, 4, mode=("zero_out",))
        r = chunk["w"] - chunk["g_rep"][:, 0]
        np.testing.assert_allclose(chunk["dvar_rep"]["zero_out"][:, 0],
                                   isqrt_delta(r, 0.05), rtol=1e-12)
