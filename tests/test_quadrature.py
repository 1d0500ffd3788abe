"""belab.quadrature against scipy as an independent reference (the test
oracles' nested `dblquad` too), and the error checks of the sites that
integrate with it."""
import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import ndtr

from belab import app_bounds, marginals
from belab.cli import main
from belab.errors import NumericError
from belab.models import kernels, ustat
from belab.models.base import DIST_CATALOG
from belab.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    brentq,
    check_error,
    quad,
)
from oracles import dblquad


class TestRule:
    def test_weights_sum_to_interval_length(self):
        assert math.isclose(KRONROD_WEIGHTS.sum(), 2.0, rel_tol=1e-15)
        assert math.isclose(GAUSS_WEIGHTS.sum(), 2.0, rel_tol=1e-15)

    def test_nodes_symmetric_and_gauss_nodes_match_legendre(self):
        np.testing.assert_array_equal(NODES, -NODES[::-1])
        gauss = NODES[GAUSS_WEIGHTS > 0]
        x, w = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(gauss, x, atol=1e-15)
        np.testing.assert_allclose(GAUSS_WEIGHTS[GAUSS_WEIGHTS > 0], w,
                                   atol=1e-15)

    @pytest.mark.parametrize("degree", range(32))
    def test_exact_on_polynomials(self, degree):
        # K21 integrates degree 31 exactly, G10 degree 19
        want = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(NODES ** degree @ KRONROD_WEIGHTS - want) < 1e-15
        if degree < 20:
            assert abs(NODES ** degree @ GAUSS_WEIGHTS - want) < 1e-15

    def test_polynomial_needs_no_bisection(self):
        coef = np.random.default_rng(1).standard_normal(32)
        poly = np.polynomial.Polynomial(coef)
        want = poly.integ()(2.5) - poly.integ()(-0.5)
        val, _err = quad(poly, -0.5, 2.5, limit=1)
        assert math.isclose(val, want, rel_tol=1e-13)


class TestQuad:
    def test_smooth_matches_scipy(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        want, _ = integrate.quad(f, 0.0, 7.0, epsabs=1e-14, epsrel=1e-14)
        val, err = quad(f, 0.0, 7.0, epsabs=1e-14, epsrel=1e-14)
        assert math.isclose(val, want, rel_tol=1e-13)
        assert err < 1e-12

    @pytest.mark.parametrize("end", ["left", "right"])
    def test_inverse_sqrt_endpoint(self, end):
        # int_0^1 |x - end|^(-1/2) cos(x) dx
        e = 0.0 if end == "left" else 1.0
        f = lambda x: np.cos(x) / np.sqrt(np.abs(x - e))
        # scipy's algebraic-weight rule integrates the factor exactly
        wvar = (-0.5, 0.0) if end == "left" else (0.0, -0.5)
        want, _ = integrate.quad(np.cos, 0.0, 1.0, weight="alg", wvar=wvar,
                                 epsabs=1e-14, epsrel=1e-14)
        val, err = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
                        singular_at=e)
        assert math.isclose(val, want, rel_tol=1e-13)
        assert err < 1e-12

    def test_singular_at_must_be_an_endpoint(self):
        with pytest.raises(ValueError):
            quad(np.cos, 0.0, 1.0, singular_at=0.5)

    @pytest.mark.parametrize("a", [-2.0, 0.0, 1.0, 3.0, 8.0])
    def test_normal_tail(self, a):
        phi = DIST_CATALOG["std_normal"].pdf
        val, err = quad(phi, a, math.inf, epsabs=0.0, epsrel=1e-12)
        assert math.isclose(val, float(ndtr(-a)), rel_tol=1e-12)
        assert err <= 1e-12 * val

    def test_nested_double_integral(self):
        f = lambda y, x: np.exp(-x * y) * np.sin(x + y)
        want, _ = integrate.dblquad(f, 0.0, 2.0, lambda x: x, lambda x: 3.0,
                                    epsabs=1e-13, epsrel=1e-13)
        val, err = dblquad(f, 0.0, 2.0, lambda x: x, lambda x: 3.0,
                           epsabs=1e-13, epsrel=1e-13)
        assert math.isclose(val, want, rel_tol=1e-12)
        assert err < 1e-11

    def test_unconverged_error_is_reported(self):
        # a narrow spike that one panel cannot resolve
        f = lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2)
        val, err = quad(f, 0.0, 1.0, limit=3)
        with pytest.raises(NumericError):
            check_error(val, err, "spike")

    def test_nan_error_fails_the_check(self):
        with pytest.raises(NumericError):
            check_error(1.0, float("nan"), "nan")


class TestBrent:
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: math.atan(x - 0.1), -1e3, 1.0),
        (lambda x: math.sin(x), 3.0, 4.0),
        (lambda x: 1.0 / 6.0 - x * x / 2.0 - 0.01, 0.0, 1.0),
    ])
    def test_matches_scipy_brentq(self, f, a, b):
        for xtol in (2e-12, 1e-14):
            want = optimize.brentq(f, a, b, xtol=xtol)
            got = brentq(f, a, b, xtol=xtol)
            assert abs(got - want) <= xtol + 4 * np.finfo(float).eps * abs(want)

    def test_root_at_an_endpoint(self):
        assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_no_convergence_raises(self):
        with pytest.raises(NumericError):
            brentq(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=3)


def _oversized(*_args, **_kwargs):
    """A quadrature that reports an error as large as its value."""
    return 1.0, 1.0


@pytest.fixture
def clear_caches():
    def clear():
        app_bounds.alpha_scale.cache_clear()
        kernels.kernel_abs_p.cache_clear()
        ustat._catalog_moments.cache_clear()
    clear()
    yield
    clear()


class TestSiteErrorChecks:
    """Every site checks its quadrature's error estimate."""

    @pytest.mark.parametrize("module,name,call", [
        (marginals, "quad",
         lambda: marginals.ExpCenteredMarginal(1.0).e_abs_p(3.0)),
        (app_bounds, "quad", lambda: app_bounds.coupling_gini(1.0)),
        (app_bounds, "quad", lambda: app_bounds.alpha_scale(0.01)),
        pytest.param(
            marginals, "quad",
            lambda: kernels.kernel_abs_p("variance", "uniform01", 2.5),
            id="belab.marginals-quad-variance-kernel"),
        pytest.param(
            marginals, "quad",
            lambda: kernels.kernel_abs_p("sum", "exponential1", 2.5),
            id="belab.marginals-quad-sum-kernel"),
    ])
    def test_oversized_error_raises(self, monkeypatch, clear_caches, module,
                                    name, call):
        monkeypatch.setattr(module, name, _oversized)
        with pytest.raises(NumericError):
            call()

    def test_bound_exits_3_with_one_error_line(self, monkeypatch, tmp_path,
                                               capsys, clear_caches):
        # at p = 2.5 the projection and kernel moments take quadrature
        monkeypatch.setattr(marginals, "quad", _oversized)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"family": "ustat", "kernel": "variance",
                      "dist": "uniform01", "n": 20},
            "bounds": ["eq3.4"], "z_grid": [1.0], "p": 2.5,
            "mc": {"master_seed": 1}}))
        assert main(["bound", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "quadrature error estimate" in err[0]
