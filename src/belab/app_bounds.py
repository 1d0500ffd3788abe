"""Closed-form application bounds for the catalog statistic families, plus
the comparison right-hand sides and the counterexample report.

All but the report's Monte Carlo cross-check are pure functions of analytic
moments; the only numerics are one-dimensional quadratures. Bounds whose
constant is unspecified are returned with known = 0 and the
constant-multiplier part in c_coeff; never pass/fail certified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .marginals import normal_abs_moment
from .mc_engine import sample_pass
from .quadrature import check_error, pointwise, quad
from .special import erf, ndtr
from .models.isqrt import (
    ISQRT_MEAN,
    delta_abs_moment,
    ks_lower_bound,
    w_delta_abs_moment,
)
from .types import (
    BoundValue,
    LStatBoundInputs,
    MomentEstimate,
    MultiBoundInputs,
    UStatBoundInputs,
)

_ROOT2 = math.sqrt(2.0)
_PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def _ustat_first_term(inp: UStatBoundInputs) -> float:
    return ((1.0 + _ROOT2) * (inp.m - 1) * inp.sigma
            / (math.sqrt(inp.m * (inp.n - inp.m + 1)) * inp.sigma1))


def _ustat_g_term(inp: UStatBoundInputs) -> float:
    return (inp.e_abs_g_p
            / (inp.n ** ((inp.p - 2.0) / 2.0) * inp.sigma1 ** inp.p))


def ustat_uniform_31(inp: UStatBoundInputs) -> BoundValue:
    """Distance between the scaled statistic and its linear part."""
    known = _ustat_first_term(inp) + inp.c0_trunc / math.sqrt(inp.n)
    return BoundValue(known=known, c_coeff=0.0)


def ustat_normal_32(inp: UStatBoundInputs) -> BoundValue:
    """Distance between the scaled statistic and the standard normal."""
    known = _ustat_first_term(inp) + 6.1 * _ustat_g_term(inp)
    return BoundValue(known=known, c_coeff=0.0)


def ustat_nonuniform_33(inp: UStatBoundInputs, z: float) -> BoundValue:
    az = abs(z)
    known = (9.0 * inp.m * inp.sigma ** 2
             / ((1.0 + az) ** 2 * (inp.n - inp.m + 1) * inp.sigma1 ** 2)
             + 13.5 * math.exp(-az / 3.0) * math.sqrt(inp.m) * inp.sigma
             / (math.sqrt(inp.n - inp.m + 1) * inp.sigma1))
    c_coeff = _ustat_g_term(inp) / (1.0 + az) ** inp.p
    return BoundValue(known=known, c_coeff=c_coeff)


def ustat_nonuniform_34(inp: UStatBoundInputs, z: float) -> BoundValue:
    """Pure constant-multiplier form in the full kernel moment."""
    az = abs(z)
    c_coeff = (math.sqrt(inp.m) * inp.e_abs_h_p
               / ((1.0 + az) ** inp.p * math.sqrt(inp.n - inp.m + 1)
                  * inp.sigma1 ** inp.p)
               + _ustat_g_term(inp) / (1.0 + az) ** inp.p)
    return BoundValue(known=0.0, c_coeff=c_coeff)


def ustat_nonuniform_36(inp: UStatBoundInputs, z: float) -> BoundValue:
    """Recombined moderate-z form; only stated for |z| within the root range."""
    az = abs(z)
    limit = math.sqrt((inp.n - inp.m + 1) / inp.m)
    if az > limit:
        raise DomainError(
            f"|z| = {az:g} outside the stated range (limit {limit:g})")
    c_coeff = (math.sqrt(inp.m) * inp.sigma ** 2
               / ((1.0 + az) ** 3 * math.sqrt(inp.n - inp.m + 1) * inp.sigma1 ** 2)
               + _ustat_g_term(inp) / (1.0 + az) ** inp.p)
    return BoundValue(known=0.0, c_coeff=c_coeff)


def _multi_ratio_sum(inp: MultiBoundInputs) -> float:
    return sum(m * m / n for m, n in zip(inp.m, inp.n))


def _multi_h_term(inp: MultiBoundInputs) -> float:
    return sum(m ** inp.p * e / n ** (inp.p - 1.0)
               for m, n, e in zip(inp.m, inp.n, inp.e_abs_h_p))


def multisample_37(inp: MultiBoundInputs) -> BoundValue:
    known = ((1.0 + _ROOT2) * (inp.sigma / inp.sn) * _multi_ratio_sum(inp)
             + 6.6 / inp.sn ** inp.p * _multi_h_term(inp))
    return BoundValue(known=known, c_coeff=0.0)


def multisample_38(inp: MultiBoundInputs, z: float) -> BoundValue:
    az = abs(z)
    rsum = _multi_ratio_sum(inp)
    known = (9.0 * inp.sigma ** 2 * rsum ** 2 / ((1.0 + az) ** 2 * inp.sn ** 2)
             + 13.5 * math.exp(-az / 3.0) * (inp.sigma / inp.sn) * rsum)
    c_coeff = _multi_h_term(inp) / ((1.0 + az) ** inp.p * inp.sn ** inp.p)
    return BoundValue(known=known, c_coeff=c_coeff)


def _lstat_g_term(inp: LStatBoundInputs) -> float:
    return inp.e_abs_g_p / (inp.n ** ((inp.p - 2.0) / 2.0) * inp.sigma ** inp.p)


def lstat_310(inp: LStatBoundInputs) -> BoundValue:
    known = ((1.0 + _ROOT2) * inp.c_lip * math.sqrt(inp.x2_moment)
             / (math.sqrt(inp.n) * inp.sigma)
             + 6.1 * _lstat_g_term(inp))
    return BoundValue(known=known, c_coeff=0.0)


def lstat_311(inp: LStatBoundInputs, z: float) -> BoundValue:
    az = abs(z)
    known = (9.0 * inp.c_lip ** 2 * inp.x2_moment
             / ((1.0 + az) ** 2 * inp.n * inp.sigma ** 2))
    c_coeff = (inp.c_lip * math.sqrt(inp.x2_moment)
               / (math.sqrt(inp.n) * inp.sigma)
               + _lstat_g_term(inp)) / (1.0 + az) ** inp.p
    return BoundValue(known=known, c_coeff=c_coeff)


# --- comparison right-hand sides and the counterexample report -------------


def shorack_rhs_46(e_w_delta: float, e_delta: float, linear_ks: float) -> float:
    """Perturbation bound: linear distance plus 4 E|W Delta| + 4 E|Delta|."""
    return linear_ks + 4.0 * e_w_delta + 4.0 * e_delta


def bg_bracket_47(e_delta: float, sum_g3: float, alpha: float) -> float:
    """The constant-free bracket E|Delta| + sum E|g_i|^3 + sqrt(alpha)."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    return e_delta + sum_g3 + math.sqrt(alpha)


def coupling_gini(r: float) -> float:
    """E| |r+S|^(-1/2) - |r+Sh|^(-1/2) | for S, Sh independent standard
    normals.

    Written as a single absolutely convergent integral via t = (r+x)^(-1/2):
    the integrand is an O(1)-scaled Gaussian in x uniformly in r, which keeps
    adaptive quadrature honest at large r where the direct form concentrates
    all mass in a spike of relative width r^(-3/2). That integrand grows like
    (r+x)^(-1/2) at x = -r, so it is integrated in u = (r+x)^(1/2), where it
    is smooth and r + x = u^2 carries no cancellation. The factor
    Phi(x) - Phi(-2r-x) is taken through erf, which keeps its relative
    accuracy as x -> -r for small r.
    """
    r = abs(r)

    def q(u):
        d = u * u
        lo = ndtr(-r - d)
        gap = 0.5 * (erf((d + r) / _ROOT2) + erf((d - r) / _ROOT2))
        return 2.0 * (ndtr(r - d) + lo) * gap / d

    # the x edges -r, -r/2, max(-10, -r) and 10, as u = sqrt(r + x)
    edges = sorted({0.0, math.sqrt(0.5 * r), math.sqrt(max(r - 10.0, 0.0)),
                    math.sqrt(r + 10.0)}) + [math.inf]
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = quad(q, a, b, epsabs=1e-10)
        total += v
        err += e
    return check_error(total, err, "coupling_gini quadrature")


# two-term small-scale expansion constants of alpha_scale below:
# a = 4 sqrt(2) phi(0) E|S - Sh|^(1/2), b = (2/sqrt(pi)) E|Z|^(1/2)
ALPHA_SERIES_A = _PHI0 * 4.0 * _ROOT2 * (2.0 ** 0.25 * normal_abs_moment(0.5))
ALPHA_SERIES_B = 2.0 / math.sqrt(math.pi) * normal_abs_moment(0.5)
_ALPHA_SERIES_CUT = 1e-4


@lru_cache(maxsize=256)
def alpha_scale(nu: float) -> float:
    """alpha / (eps sqrt(nu)) for the perturbed-normal model at nu = 1/sqrt(n).

    Full nested quadrature down to nu = 1e-4; below that the validated
    two-term expansion a - b sqrt(nu) (quadrature and series agree to 1e-9
    at the crossover, and the series is exact in the nu -> 0 limit).
    """
    if not 0.0 < nu < 1.0:
        raise DomainError("nu must lie in (0, 1)")
    if nu < _ALPHA_SERIES_CUT:
        return ALPHA_SERIES_A - ALPHA_SERIES_B * math.sqrt(nu)
    sig_r = math.sqrt(1.0 - nu * nu)
    weight = lambda r: np.exp(-0.5 * (nu * r / sig_r) ** 2) * _PHI0 / sig_r
    gini = pointwise(coupling_gini)
    fn = lambda r: weight(r) * gini(r)
    top = 10.0 / nu
    edges = [e for e in (0.0, 1.0, 4.0, 16.0, 64.0) if e < top]
    e = edges[-1]
    while e < top:
        e *= 4.0
        edges.append(min(e, top))
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        v, dv = quad(fn, a, b)
        total += v
        err += dv
    # analytic large-r tail: coupling_gini(r) ~ r^(-3/2)/sqrt(pi)
    v, dv = quad(lambda r: weight(r) / math.sqrt(math.pi) / r ** 1.5, top,
                 math.inf)
    return 2.0 * check_error(total + v, err + dv, "alpha_scale quadrature")


@dataclass(frozen=True)
class CounterexampleReport:
    """One row of the contradiction table."""

    epsilon: float
    lhs_exact: float
    lhs_floor: float
    shorack_rhs: float
    bg_bracket: float
    ratio_shorack: float
    ratio_bg: float
    alpha: float
    n: float

    def __post_init__(self):
        if self.lhs_exact <= 0:
            raise DomainError("exact lower bound must be positive in range")


def check_counterexample_epsilon(eps: float):
    """Raise DomainError unless eps lies in (2^-256, 1/64), the report's
    domain: below 2^-256, its n = eps^(-4) overflows a float."""
    if not 2.0 ** -256 < eps < 1.0 / 64.0:
        raise DomainError(f"epsilon must lie in (2^-256, 1/64), got {eps}")


def counterexample_report(epsilons) -> list:
    """Contradiction table rows, quadrature/closed-form only.

    n is pinned to the smallest admissible value eps^(-4); every reported
    quantity depends on n only through 1/sqrt(n) = eps^2, which is used
    exactly.
    """
    rows = []
    for eps in epsilons:
        eps = float(eps)
        check_counterexample_epsilon(eps)
        nu = eps * eps  # 1/sqrt(n) at n = eps^(-4)
        lhs = ks_lower_bound(eps)
        floor = eps ** (2.0 / 3.0) / 6.0
        sho = shorack_rhs_46(eps * w_delta_abs_moment(),
                             eps * delta_abs_moment(1.0), 0.0)
        alpha = eps * math.sqrt(nu) * alpha_scale(nu)
        sum_g3 = normal_abs_moment(3.0) * nu
        bg = bg_bracket_47(eps * delta_abs_moment(1.0), sum_g3, alpha)
        rows.append(CounterexampleReport(
            epsilon=eps, lhs_exact=lhs, lhs_floor=floor,
            shorack_rhs=sho, bg_bracket=bg,
            ratio_shorack=lhs / sho, ratio_bg=lhs / bg,
            alpha=alpha, n=eps ** -4.0))
    return rows


def counterexample_check(model, replicates, seed, threads=1):
    """Sampled (4.2) left side P(T <= eps mu) - Phi(eps mu) and (4.3)
    E|W Delta| + E|Delta| (zero_out) of an IsqrtModel, as MomentEstimates
    from `replicates` draws on the substreams of the SeedSpec `seed`."""
    t, _w, comps = sample_pass(model, replicates, seed, modes=("zero_out",),
                               threads=threads)
    cut = model.epsilon * ISQRT_MEAN
    p_hat = float(np.count_nonzero(t <= cut)) / t.size
    lhs_se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / t.size)
    zero_out = comps["zero_out"]
    return (MomentEstimate(p_hat - ndtr(cut), lhs_se, t.size),
            zero_out.e_abs_w_delta + zero_out.delta_abs)


__all__ = [
    "ALPHA_SERIES_A", "ALPHA_SERIES_B", "CounterexampleReport", "ISQRT_MEAN",
    "alpha_scale", "bg_bracket_47", "check_counterexample_epsilon",
    "counterexample_check", "counterexample_report",
    "coupling_gini", "ks_lower_bound", "lstat_310", "lstat_311",
    "multisample_37", "multisample_38", "shorack_rhs_46", "ustat_nonuniform_33",
    "ustat_nonuniform_34", "ustat_nonuniform_36", "ustat_normal_32",
    "ustat_uniform_31",
]
