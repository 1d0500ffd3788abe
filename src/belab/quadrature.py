"""Adaptive quadrature and a bracketing root finder, on numpy alone.

belab's analytic oracles are integrals of smooth or piecewise smooth
functions of one variable: truncated and capped moments of the marginals
and of the U-statistic kernels, and the coupling integrals of the
perturbed-normal counterexample (`alpha_scale` integrates one of them).

- `quad`: globally adaptive Gauss-Kronrod G10-K21 with QUADPACK's error
  estimate. Each step bisects the panel with the largest error (the QAG
  strategy, Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner 1983).
  - A semi-infinite range [a, inf) maps onto (0, 1] by x = a + (1 - t)/t.
  - An endpoint where the integrand grows like |x - end|^(-1/2) is made
    smooth by x = end +- u^2.
- `brentq`: Brent's (1973) bracketing root finder.

Every integral returns (value, error estimate); `check_error` turns an
estimate too large for its value into a NumericError. An integrand takes a
1-d float array of abscissae and returns an array of the same length;
`pointwise` adapts a scalar function.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import NumericError

# The 21-point Kronrod extension of the 10-point Gauss-Legendre rule on
# [-1, 1]: nonnegative abscissae, outermost first, with their Kronrod
# weights; the Gauss weights belong to every second abscissa (index 1, 3,
# ..., 9). Values from QUADPACK's dqk21 (Piessens et al. 1983).
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980221119,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1:10:2] = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# the whole rule, abscissae ascending; the Gauss weight of a Kronrod-only
# abscissa is 0
NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])
_KRONROD_GAUSS = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS], axis=1)

_EPS = np.finfo(float).eps
# scipy.integrate.quad's default tolerances
EPSABS = 1.49e-8
EPSREL = 1.49e-8
LIMIT = 200


def pointwise(fn):
    """Array integrand made from a scalar function of one float."""
    return lambda x: np.array([fn(v) for v in x.tolist()])


def _rule(f, panels):
    """[(K21 value, QUADPACK error estimate)] of each (lo, hi) panel, from
    one call of f on every panel's abscissae."""
    halves = [0.5 * (hi - lo) for lo, hi in panels]
    x = (np.array([0.5 * (lo + hi) for lo, hi in panels])[:, None]
         + np.array(halves)[:, None] * NODES)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kg = fx @ _KRONROD_GAUSS
    # spread of f about its mean: scales |K - G|, which overstates the
    # error of K21 by many orders on smooth panels
    spread = np.abs(fx - 0.5 * kg[:, :1]) @ KRONROD_WEIGHTS
    absval = np.abs(fx) @ KRONROD_WEIGHTS
    out = []
    for (k, g), s, a, h in zip(kg.tolist(), spread.tolist(), absval.tolist(),
                               halves):
        err = abs((k - g) * h)
        asc = s * abs(h)
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        out.append((k * h, max(err, 50.0 * _EPS * a * abs(h))))
    return out


def _adapt(f, a, b, epsabs, epsrel, limit):
    """(value, error) of the integral of f over finite [a, b]."""
    [(value, error)] = _rule(f, [(a, b)])
    # a max-heap of panels by error estimate
    panels = [(-error, a, b, value)]
    while not error <= max(epsabs, epsrel * abs(value)) and len(panels) < limit:
        neg_err, lo, hi, v = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            heapq.heappush(panels, (neg_err, lo, hi, v))
            break
        halves = ((lo, mid), (mid, hi))
        for (p, q), (pv, pe) in zip(halves, _rule(f, halves)):
            heapq.heappush(panels, (-pe, p, q, pv))
            value += pv
            error += pe
        value -= v
        error += neg_err
    return (math.fsum(p[3] for p in panels),
            math.fsum(-p[0] for p in panels))


def quad(f, a, b, *, epsabs=EPSABS, epsrel=EPSREL, limit=LIMIT,
         singular_at=None):
    """(value, error estimate) of the integral of f over [a, b].

    b may be inf. `singular_at`, when given, is the endpoint a or b near
    which f may grow like |x - end|^(-1/2); the rule then runs in u with
    x = end +- u^2, which makes such an f smooth. At most `limit` panels.
    """
    a, b = float(a), float(b)
    if b == math.inf:
        if singular_at is not None:
            raise ValueError("singular_at needs a finite range")
        return _adapt(lambda t: f(a + (1.0 - t) / t) / (t * t), 0.0, 1.0,
                      epsabs, epsrel, limit)
    if singular_at is None:
        return _adapt(f, a, b, epsabs, epsrel, limit)
    if singular_at == a:
        g = lambda u: 2.0 * u * f(a + u * u)
    elif singular_at == b:
        g = lambda u: 2.0 * u * f(b - u * u)
    else:
        raise ValueError(f"singular_at={singular_at!r} is not an endpoint")
    return _adapt(g, 0.0, math.sqrt(b - a), epsabs, epsrel, limit)


def check_error(value, error, what, atol=1e-9, rtol=1e-6):
    """value, when error <= max(atol, rtol |value|); else NumericError."""
    if not error <= max(atol, rtol * abs(value)):
        raise NumericError(f"{what} error estimate {error:.3e} too large "
                           f"for value {value:.6e}")
    return value


def brentq(f, a, b, xtol=2e-12, rtol=4 * _EPS, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps
    while they shrink the bracket fast enough, bisection otherwise. The
    result lies within xtol + rtol |x| of a sign change of f.
    """
    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = f(x_pre), f(x_cur)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre > 0.0) == (f_cur > 0.0):
        raise ValueError(f"f({a}) and f({b}) have the same sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre > 0.0) != (f_cur > 0.0):
            # x_blk: the far end of the bracket
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            # keep the best estimate in x_cur
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = f(x_cur)
    raise NumericError(f"root finder: no convergence in {maxiter} steps")
