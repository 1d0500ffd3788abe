"""General-theorem quantities: beta, the delta solvers, and the uniform and
non-uniform bound formulas with their explicit constants.

All functions are pure. Each bound is one sum of MomentEstimates, whose `+`
and scalar `*` propagate standard errors first-order (linear sums of
component SEs); quadratic cross-terms are ignored, which is conservative for
the nonnegative combinations used here.
"""
from __future__ import annotations

import math

from .errors import DomainError, InvalidModelError
from .marginals import LinearPart
from .types import BoundComponents, BoundValue, MomentEstimate, check_p

NORMALIZATION_RTOL = 1e-6


def compute_beta(g_dist: LinearPart) -> MomentEstimate:
    """beta = sum_i [E g_i^2 I(|g_i|>1) + E|g_i|^3 I(|g_i|<=1)].

    When every |g_i| <= 1 a.s. this reduces to the classical sum of third
    absolute moments.
    """
    return MomentEstimate(g_dist.beta_terms())


def check_normalization(g_dist: LinearPart, rtol=NORMALIZATION_RTOL):
    total = g_dist.sum_e2()
    if abs(total - 1.0) > rtol:
        raise InvalidModelError(
            f"linear part not normalized: sum E g_i^2 = {total!r}, expected 1")


def _bisect(satisfied, hi: float, tolerance: float, never: str) -> float:
    """High end of the bisection bracket for a rule that holds on a ray:
    hi doubles until it holds (past 2^60 `never` is raised), then [0, hi]
    halves to relative width `tolerance`."""
    lo = 0.0
    while not satisfied(hi):
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise InvalidModelError(never)
    while hi - lo > tolerance * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def solve_delta_minimal(g_dist: LinearPart, tolerance: float = 1e-6) -> float:
    """Smallest delta with L(delta) = sum_i E|g_i| min(delta, |g_i|) >= 1/2.

    L is nondecreasing and continuous with L(inf) = sum E g_i^2 = 1, so a
    root exists under normalization. Bisection to relative tolerance; the
    returned value is the high end of the final bracket, so L(result) >= 1/2
    is guaranteed.
    """
    if tolerance <= 0:
        raise DomainError("tolerance must be > 0")
    check_normalization(g_dist, rtol=max(NORMALIZATION_RTOL, tolerance))
    return _bisect(lambda d: g_dist.l_of(d) >= 0.5, 2.0, tolerance,
                   "L(delta) never reaches 1/2; normalization broken")


def delta_from_p_moment(p: float, sum_p_moment: float) -> float:
    """delta = (2 (p-2)^{p-2} / (p-1)^{p-1} * sum_i E|g_i|^p)^{1/(p-2)}.

    Stated for 2 < p <= 3; the formula itself extends to any p > 2 and this
    function accepts p > 3 as that extension. As p -> 2+ the factor
    (p-2)^{p-2} -> 1.
    """
    if p <= 2:
        raise DomainError(f"p must be > 2, got {p}")
    if sum_p_moment <= 0:
        raise DomainError("sum of p-th moments must be > 0")
    factor = 2.0 * (p - 2.0) ** (p - 2.0) / (p - 1.0) ** (p - 1.0)
    return (factor * sum_p_moment) ** (1.0 / (p - 2.0))


def delta_from_truncation(g_dist: LinearPart, tolerance: float = 1e-9) -> float:
    """Smallest delta with sum_i E g_i^2 I(|g_i| > delta) <= 1/2.

    The truncated sum is nonincreasing and right-continuous; it starts at
    sum E g_i^2 = 1 (the indicator at 0 removes nothing, g^2 vanishes where
    g does) and falls to 0. The satisfying set is a closed ray, found by
    bisection; result is the satisfying high end of the bracket. For atomic
    marginals the strict inequality in I(|g| > delta) makes the jump points
    themselves satisfying, e.g. scaled coin flips at +-1/10 give exactly 0.1.
    """
    return _bisect(lambda d: g_dist.trunc_sum(d) <= 0.5, 1.0, tolerance,
                   "truncated sum never falls to 1/2")


def uniform_bound_thm21(c: BoundComponents) -> BoundValue:
    """4 delta + E|W Delta| + sum_i E|g_i (Delta - Delta_i)|, vs the law of W."""
    if c.delta is None:
        raise DomainError("components carry no delta")
    b = 4.0 * c.delta + c.e_abs_w_delta + c.sum_g_delta_diff
    return BoundValue(b.value, 0.0, b.std_error)


def uniform_bound_beta(c: BoundComponents) -> BoundValue:
    """2 beta + E|W Delta| + sum_i E|g_i (Delta - Delta_i)|, vs the law of W.

    Returned even when beta > 1/2, where known > 1 says nothing.
    """
    if c.beta is None:
        raise DomainError("components carry no beta")
    b = 2.0 * c.beta + c.e_abs_w_delta + c.sum_g_delta_diff
    return BoundValue(b.value, 0.0, b.std_error)


def uniform_bound_normal(c: BoundComponents) -> BoundValue:
    """6.1 beta + E|W Delta| + sum_i E|g_i (Delta - Delta_i)|, vs the standard
    normal. Exceeds uniform_bound_beta by exactly 4.1 beta."""
    if c.beta is None:
        raise DomainError("components carry no beta")
    b = 6.1 * c.beta + c.e_abs_w_delta + c.sum_g_delta_diff
    return BoundValue(b.value, 0.0, b.std_error)


def linear_baseline(g_dist: LinearPart) -> BoundValue:
    """4.1 beta: the linear-statistic normal-approximation bound for W alone."""
    b = 4.1 * compute_beta(g_dist)
    return BoundValue(b.value, 0.0, b.std_error)


def chebyshev_baseline(linear_ks: float, delta_p_moment: float, p: float) -> BoundValue:
    """linear_ks + 2 (E|Delta|^p)^{1/(1+p)}: the soft baseline that only needs
    a Delta moment. Loose but assumption-free."""
    if p <= 0:
        raise DomainError(f"p must be > 0, got {p}")
    if linear_ks < 0 or delta_p_moment < 0:
        raise DomainError("inputs must be >= 0")
    known = linear_ks + 2.0 * delta_p_moment ** (1.0 / (1.0 + p))
    return BoundValue(known, 0.0)


def nonuniform_tau(c: BoundComponents) -> MomentEstimate:
    """tau = 22 delta + 8.5 ||Delta||_2 + 3.6 sum_i ||g_i||_2 ||Delta - Delta_i||_2."""
    if c.delta is None:
        raise DomainError("components carry no delta")
    if c.delta_l2 is None:
        raise DomainError("components carry no ||Delta||_2: the remainder "
                          "has no second moment")
    return 22.0 * c.delta + 8.5 * c.delta_l2 + 3.6 * c.sum_g_l2_delta_l2


def nonuniform_bound_thm22(gamma: MomentEstimate, tau: MomentEstimate,
                           z: float) -> BoundValue:
    """gamma_z + e^{-|z|/3} tau, bounding |P(T<=z) - P(W<=z)| at the point z;
    gamma_z sums the Delta, g_i and W - g_i tails at levels tied to |z|.

    Requires the leave-one-out variants behind gamma/tau to satisfy the
    stronger independence (X_i independent of (Delta_i, all other X_j)),
    which the resample variant provides.
    """
    b = gamma + math.exp(-abs(z) / 3.0) * tau
    return BoundValue(b.value, 0.0, b.std_error)


def nonuniform_moment_bound(p: float, z: float, delta_tail: MomentEstimate,
                            delta_l2: float, sum_gl2_dl2: float,
                            sum_p_moment: float) -> BoundValue:
    """Moment form of the non-uniform bound: the Delta tail enters with an
    explicit constant, and its standard error with it; everything else
    multiplies the unspecified C.

    Never pass/fail-verifiable (c_coeff > 0 whenever the model is nontrivial).
    """
    check_p(p)
    if not 0.0 <= delta_tail.value <= 1.0:
        raise DomainError("delta_tail must be a probability")
    c_coeff = (1.0 + abs(z)) ** (-p) * (delta_l2 + sum_gl2_dl2 + sum_p_moment)
    return BoundValue(delta_tail.value, c_coeff, delta_tail.std_error)
