"""Per-index distribution summaries for the linear part.

A Marginal answers moment queries about one g_i(X_i): full and truncated
absolute moments, tail probabilities, and the capped first moment
E|g| min(d, |g|). Answers come from two tiers:

- closed forms: NormalMarginal, UniformMarginal and AtomMarginal at every
  p, and QuadraticMarginal (the variance kernel's projection, and its
  kernel as a function of X - Y) at p in CLOSED_P, built from the
  truncated power moments of its centred base variable (`*_power_moments`),
  in Python floats alone;
- adaptive quadrature (`belab.quadrature`) over segments split at the
  kinks of |g|^p, each result checked against its error estimate:
  ExpCenteredMarginal, MonotoneMarginal, and QuadraticMarginal at any
  other p.

Both tiers are exact up to the quadrature tolerance; the sampled
ingredients of a bound (the coupling moments of the remainder) come from
mc_engine, not from here.

A LinearPart groups identical marginals with counts and exposes the sums
that the bound formulas need. Where the law of W is known as a whole, a
subclass (`models.linear.StandardizedSum`) also answers the exact KS
distance of W and the tail of W - g_i, which the base class leaves None.
"""
from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod

import numpy as np

from .quadrature import brentq, check_error, quad
from .special import gammainc, ndtr, two_prod

QUAD_EPSABS = 1e-12
# quadrature windows, in standardized units; mass beyond is < 1e-30
NORMAL_CUT = 12.0
EXP_CUT = 60.0
# the moment orders at which QuadraticMarginal is closed form, and the
# highest power moment of its base variable that they read (|g|^3 is a
# polynomial of degree 6 on each segment)
CLOSED_P = (1.0, 2.0, 3.0)
POWER_MOMENTS = 6
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_FACTORIALS = [math.factorial(k) for k in range(POWER_MOMENTS + 1)]


def quad_segments(fn, edges, epsabs=QUAD_EPSABS, singular=()):
    """Integrate fn over consecutive [edges[k], edges[k+1]] segments.

    fn maps an array of abscissae to an array of values. Splitting at known
    kinks/transitions keeps the adaptive rule honest; a naive single call
    can miss narrow features entirely. An edge in `singular` is one where
    fn may grow like |x - edge|^(-1/2). Raises NumericError when the summed
    error estimate is too large for the value.
    """
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        end = a if a in singular else (b if b in singular else None)
        v, e = quad(fn, a, b, epsabs=epsabs, singular_at=end)
        total += v
        err += e
    return check_error(total, err, "quadrature")


def _memoized(method):
    """Per-instance cache of a method's value at each tuple of arguments:
    a full moment E|g|^p, a preimage or a piece's power moments, which the
    delta solvers and the beta terms ask for again at each threshold they
    try (e_abs_min alone cuts the same pieces for p = 2 and p = 1)."""
    key = "_memo_" + method.__name__.lstrip("_")

    @functools.wraps(method)
    def cached(self, *args):
        cache = self.__dict__.setdefault(key, {})
        if args not in cache:
            cache[args] = method(self, *args)
        return cache[args]
    return cached


class Marginal(ABC):
    """Moment oracle for a single g_i."""

    @abstractmethod
    def e_abs_p(self, p: float) -> float:
        """E |g|^p."""

    @abstractmethod
    def e_abs_p_below(self, p: float, t: float) -> float:
        """E |g|^p I(|g| <= t)."""

    @abstractmethod
    def prob_abs_above(self, t: float) -> float:
        """P(|g| > t), strict inequality (matters at atoms)."""

    def e2(self) -> float:
        return self.e_abs_p(2.0)

    def e2_above(self, t: float) -> float:
        """E g^2 I(|g| > t)."""
        if t <= 0:
            return self.e2()
        return max(0.0, self.e2() - self.e_abs_p_below(2.0, t))

    def e_abs_min(self, d: float) -> float:
        """E |g| min(d, |g|) = E g^2 I(|g|<=d) + d E|g| I(|g|>d)."""
        if d <= 0:
            return 0.0
        below2 = self.e_abs_p_below(2.0, d)
        above1 = max(0.0, self.e_abs_p(1.0) - self.e_abs_p_below(1.0, d))
        return below2 + d * above1

    def l2(self) -> float:
        return math.sqrt(self.e2())


def normal_abs_moment(p: float) -> float:
    """E|Z|^p for standard normal Z."""
    return math.exp(p / 2 * math.log(2.0) + math.lgamma((p + 1) / 2)) / math.sqrt(math.pi)


class NormalMarginal(Marginal):
    """g = scale * Z with Z standard normal. All oracles closed-form."""

    def __init__(self, scale: float):
        if scale <= 0:
            raise ValueError("scale must be > 0")
        self.scale = float(scale)

    def e_abs_p(self, p):
        return self.scale ** p * normal_abs_moment(p)

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        u = t / self.scale
        # 2 int_0^u x^p phi(x) dx via the regularized lower incomplete gamma
        shape = (p + 1) / 2
        full = normal_abs_moment(p)
        return self.scale ** p * full * gammainc(shape, u * u / 2)

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        return 2.0 * ndtr(-t / self.scale)

    def e2(self):
        return self.scale ** 2


class UniformMarginal(Marginal):
    """g uniform on [-halfwidth, halfwidth]."""

    def __init__(self, halfwidth: float):
        if halfwidth <= 0:
            raise ValueError("halfwidth must be > 0")
        self.halfwidth = float(halfwidth)

    def e_abs_p(self, p):
        return self.halfwidth ** p / (p + 1)

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        t = min(t, self.halfwidth)
        return t ** (p + 1) / ((p + 1) * self.halfwidth)

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        return max(0.0, 1.0 - t / self.halfwidth)

    def e2(self):
        return self.halfwidth ** 2 / 3.0


class AtomMarginal(Marginal):
    """Finite support; exact sums with strict inequalities at atoms."""

    def __init__(self, values, probs):
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.values.shape != self.probs.shape:
            raise ValueError("values and probs must align")
        if abs(self.probs.sum() - 1.0) > 1e-12 or (self.probs < 0).any():
            raise ValueError("probs must be a distribution")

    @classmethod
    def rademacher(cls, scale: float):
        return cls([-scale, scale], [0.5, 0.5])

    def e_abs_p(self, p):
        return float((np.abs(self.values) ** p * self.probs).sum())

    def e_abs_p_below(self, p, t):
        mask = np.abs(self.values) <= t
        return float((np.abs(self.values[mask]) ** p * self.probs[mask]).sum())

    def prob_abs_above(self, t):
        return float(self.probs[np.abs(self.values) > t].sum())


class ExpCenteredMarginal(Marginal):
    """g = scale * (X - 1) with X standard exponential. Quadrature tier."""

    def __init__(self, scale: float):
        if scale <= 0:
            raise ValueError("scale must be > 0")
        self.scale = float(scale)

    @_memoized
    def e_abs_p(self, p):
        s = self.scale
        fn = lambda x: np.abs(s * (x - 1.0)) ** p * np.exp(-x)
        return quad_segments(fn, [0.0, 1.0, EXP_CUT])

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        u = t / self.scale
        # region |x - 1| <= u, kink of |g|^p at x = 1
        lo, hi = max(0.0, 1.0 - u), min(1.0 + u, EXP_CUT)
        if hi <= lo:
            return 0.0
        s = self.scale
        fn = lambda x: np.abs(s * (x - 1.0)) ** p * np.exp(-x)
        edges = sorted({lo, hi} | ({1.0} if lo < 1.0 < hi else set()))
        return quad_segments(fn, edges)

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        u = t / self.scale
        upper = math.exp(-(1.0 + u))
        lower = 1.0 - math.exp(-(1.0 - u)) if u < 1.0 else 0.0
        return upper + lower

    def e2(self):
        return self.scale ** 2  # Var(Exp(1)) = 1


def normal_power_moments(lo: float, hi: float) -> tuple:
    """(M_0, ..., M_6), M_k = E Z^k 1{lo <= Z <= hi} for Z standard normal
    and finite lo <= hi.

    M_0 is a difference of normal cdfs, taken on the side of 0 where both
    are tails, M_1 = phi(lo) - phi(hi), and integration by parts gives
    M_k = (k - 1) M_{k-2} + lo^(k-1) phi(lo) - hi^(k-1) phi(hi)."""
    m0 = ndtr(-lo) - ndtr(-hi) if lo > 0.0 else ndtr(hi) - ndtr(lo)
    f_lo = math.exp(-0.5 * lo * lo) * _INV_SQRT_2PI
    f_hi = math.exp(-0.5 * hi * hi) * _INV_SQRT_2PI
    out = [m0, f_lo - f_hi]
    for k in range(2, POWER_MOMENTS + 1):
        out.append((k - 1) * out[k - 2] + lo ** (k - 1) * f_lo
                   - hi ** (k - 1) * f_hi)
    return tuple(out)


def uniform_power_moments(lo: float, hi: float) -> tuple:
    """(M_0, ..., M_6), M_k = E Y^k 1{lo <= Y <= hi} for Y uniform on
    [-1/2, 1/2] and lo <= hi inside it: (hi^(k+1) - lo^(k+1)) / (k + 1)."""
    return tuple((hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                 for k in range(POWER_MOMENTS + 1))


def _poisson_sums(x: float):
    """([P(N <= k)], [P(N > k)]) for k = 0, ..., 6 and N ~ Poisson(x),
    x >= 0, each a sum of positive terms: the tail past 6 is a series
    below the mean 7 and 1 - P(N <= 6) from there."""
    pmf = [math.exp(-x)]
    for j in range(1, POWER_MOMENTS + 2):
        pmf.append(pmf[-1] * x / j)
    below = list(itertools.accumulate(pmf[:-1]))
    if x < POWER_MOMENTS + 1:
        tail, term, j = 0.0, pmf[-1], POWER_MOMENTS + 1
        while term > 1e-17 * tail:
            tail += term
            j += 1
            term *= x / j
    else:
        tail = 1.0 - below[-1]
    above = list(itertools.accumulate(reversed(pmf[1:-1]), initial=tail))
    return below, above[::-1]


def _exp_growth(x: float) -> list:
    """[int_0^x s^k e^s ds for k = 0, ..., 6], 0 <= x <= 1, each by its
    series sum_m x^(k+m+1) / (m! (k + m + 1)) of positive terms."""
    out = []
    for k in range(POWER_MOMENTS + 1):
        term, total, m = x ** (k + 1), 0.0, 0
        while term > 1e-17 * total:
            total += term / (k + m + 1)
            m += 1
            term *= x / m
        out.append(total)
    return out


def _gamma_pieces(u: float, v: float) -> list:
    """[int_u^v y^k e^-y dy for k = 0, ..., 6], 0 <= u <= v finite, from
    the Poisson sums as `exponential_power_moments` describes."""
    below_u, above_u = _poisson_sums(u)
    below_v, above_v = _poisson_sums(v)
    return [f * (bu - bv) if bu < av else f * (av - au) for f, bu, au, bv, av
            in zip(_FACTORIALS, below_u, above_u, below_v, above_v)]


def exponential_power_moments(lo: float, hi: float) -> tuple:
    """(M_0, ..., M_6), M_k = E Y^k 1{lo <= Y <= hi} for Y = X - 1, X
    standard exponential, and -1 <= lo <= hi finite.

    The density is e^(-1) e^(-y). Above 0, int_u^v y^k e^-y dy is k! times
    a difference of Poisson sums at u and v (P(N <= k), or P(N > k) where
    that is the smaller); below 0 it is (-1)^k times a difference of the
    series of int_0^s s^k e^s ds. Either way the operands are sums of
    positive terms no larger than the integral from 0 or to infinity,
    where the recursion M_k = k M_{k-1} + lo^k e^-(lo+1) - hi^k e^-(hi+1)
    would multiply the rounding of its boundary terms by up to 6!."""
    out = [0.0] * (POWER_MOMENTS + 1)
    if lo < 0.0:
        near, far = _exp_growth(-min(hi, 0.0)), _exp_growth(-lo)
        for k in range(POWER_MOMENTS + 1):
            out[k] = (-1) ** k * (far[k] - near[k])
    if hi > 0.0:
        for k, piece in enumerate(_gamma_pieces(max(lo, 0.0), hi)):
            out[k] += piece
    return tuple(v * math.exp(-1.0) for v in out)


def laplace_power_moments(lo: float, hi: float) -> tuple:
    """(M_0, ..., M_6), M_k = E Y^k 1{lo <= Y <= hi} for Y with density
    e^(-|y|) / 2 (X - X' for X, X' standard exponential) and lo <= hi
    finite: half the `_gamma_pieces` above 0 and, mirrored, below it."""
    left = _gamma_pieces(max(-hi, 0.0), max(-lo, 0.0))
    right = _gamma_pieces(max(lo, 0.0), max(hi, 0.0))
    return tuple(0.5 * ((-1) ** k * neg + pos)
                 for k, (neg, pos) in enumerate(zip(left, right)))


def triangle_power_moments(lo: float, hi: float) -> tuple:
    """(M_0, ..., M_6), M_k = E Y^k 1{lo <= Y <= hi} for Y with density
    1 - |y| on [-1, 1] (X - X' for X, X' uniform on [0, 1]) and lo <= hi
    inside it, from the antiderivative y^(k+1) (1/(k+1) - |y|/(k+2))."""
    prim = lambda y, k: y ** (k + 1) * (1.0 / (k + 1) - abs(y) / (k + 2))
    return tuple(prim(hi, k) - prim(lo, k) for k in range(POWER_MOMENTS + 1))


class QuadraticMarginal(Marginal):
    """g = a ((X - m)^2 - v) for a continuous base law with mean m and
    variance v > 0, a > 0: the variance kernel's projection.

    `base` gives the law: pdf, cdf, sf, support, mean, var and
    centred_moments(lo, hi), the closed-form (M_0, ..., M_6) of
    Y = X - m over [lo, hi]. With r = sqrt(v), the support cut at
    Y = -r, 0, r (`_segments`) leaves pieces on which |g|^p is
    a^p |Y^2 - v|^p with one sign inside, a polynomial of degree 2p in Y at
    integer p; so at p in CLOSED_P every moment is a sum of power moments,
    and any other p takes the quadrature tier over the same pieces.
    Region algebra: |g| <= t is |Y| in [sqrt(max(0, v - t/a)),
    sqrt(v + t/a)].
    """

    def __init__(self, a, base):
        if a <= 0 or base.var <= 0:
            raise ValueError("a and the base variance must be > 0")
        self.a = float(a)
        self.base = base
        self.b, self.c = float(base.mean), float(base.var)
        self.x_lo, self.x_hi = base.support

    def _segments(self, lo, hi):
        """(y0, y1, inner) for each piece of lo <= |Y| <= hi inside the
        support between the cuts -r, 0 and r; inner is |Y| < r, where
        Y^2 - v < 0."""
        r = math.sqrt(self.c)
        y_lo, y_hi = self.x_lo - self.b, self.x_hi - self.b
        for y0, y1, inner in ((-hi, -r, False), (-r, -lo, True),
                              (lo, r, True), (r, hi, False)):
            y0, y1 = max(y0, y_lo), min(y1, y_hi)
            if y1 > y0:
                yield y0, y1, inner

    @_memoized
    def _moments(self, y0, y1):
        """The base law's centred power moments over the piece [y0, y1]."""
        return self.base.centred_moments(y0, y1)

    def _closed_abs_p(self, k, lo, hi):
        """E|g|^k 1{lo <= |Y| <= hi} for integer k in 1..3: on each piece,
        sum_j C(k, j) (-v)^(k-j) M_2j, negated inside at odd k."""
        coef = [math.comb(k, j) * (-self.c) ** (k - j) for j in range(k + 1)]
        total = 0.0
        for y0, y1, inner in self._segments(lo, hi):
            m = self._moments(y0, y1)
            piece = math.fsum(cj * m[2 * j] for j, cj in enumerate(coef))
            total += max(0.0, -piece if inner and k % 2 else piece)
        return self.a ** k * total

    def _quad_abs_p(self, p, lo, hi):
        """E|g|^p 1{lo <= |Y| <= hi} by quadrature over the pieces."""
        fn = lambda x: (np.abs(self.a * ((x - self.b) ** 2 - self.c)) ** p
                        * self.base.pdf(x))
        return sum(quad_segments(fn, [self.b + y0, self.b + y1])
                   for y0, y1, _inner in self._segments(lo, hi))

    def _abs_p(self, p, lo, hi):
        if p in CLOSED_P:
            return self._closed_abs_p(int(p), lo, hi)
        return self._quad_abs_p(p, lo, hi)

    @_memoized
    def e_abs_p(self, p):
        return self._abs_p(p, 0.0, math.inf)

    def _region_points(self, t):
        """(lo, hi) of |Y| where |g| <= t; v - t/a is taken as
        (a v - t) / a with a v exact (two_prod), so lo keeps its digits
        as t nears a v, where |g| peaks inside."""
        av, av_err = two_prod(self.a, self.c)
        lo = math.sqrt(max(0.0, ((av - t) + av_err) / self.a))
        hi = math.sqrt(self.c + t / self.a)
        return lo, hi

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        return self._abs_p(p, *self._region_points(t))

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        lo, hi = self._region_points(t)
        base, b = self.base, self.b
        inside = base.cdf(b + lo) - base.cdf(b - lo) if lo > 0 else 0.0
        # the upper tail from the survival function: 1 - cdf loses its
        # digits as the tail falls toward 1e-16
        return max(0.0, base.sf(b + hi) + base.cdf(b - hi) + inside)


class MonotoneMarginal(Marginal):
    """g = fn(X) with fn continuous and strictly decreasing on [x_lo, x_hi].

    fn and density map arrays elementwise. Preimages come from Brent's root
    finder against fn; used for L-statistic projections.
    """

    def __init__(self, fn, x_lo, x_hi, density, cdf):
        self.fn = fn
        self.x_lo, self.x_hi = float(x_lo), float(x_hi)
        self.density = density
        self.cdf = cdf
        self._f_lo = float(fn(self.x_lo))
        self._f_hi = float(fn(self.x_hi))
        if self._f_lo < self._f_hi:
            raise ValueError("fn is not decreasing on the support")

    @_memoized
    def _preimage(self, y):
        """x with fn(x) = y, clipped to the support; y and -y come back at
        every threshold that the solvers and the tail terms read."""
        if y >= self._f_lo:
            return self.x_lo
        if y <= self._f_hi:
            return self.x_hi
        return brentq(lambda x: float(self.fn(x)) - y, self.x_lo, self.x_hi,
                      xtol=1e-14)

    def _zero(self):
        return self._preimage(0.0)

    @_memoized
    def e_abs_p(self, p):
        fn = lambda x: np.abs(self.fn(x)) ** p * self.density(x)
        return quad_segments(fn, sorted({self.x_lo, self._zero(), self.x_hi}))

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        # g in [-t, t] is x in [preimage(t), preimage(-t)] for decreasing fn
        a, b = self._preimage(t), self._preimage(-t)
        if b <= a:
            return 0.0
        fn = lambda x: np.abs(self.fn(x)) ** p * self.density(x)
        edges = sorted({a, b} | ({self._zero()} if a < self._zero() < b else set()))
        return quad_segments(fn, edges)

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        a, b = self._preimage(t), self._preimage(-t)
        inside = max(0.0, self.cdf(b) - self.cdf(a))
        return max(0.0, 1.0 - inside)


class LinearPart:
    """The linear half of the decomposition: marginals of g_i with counts.

    groups is a list of (marginal, count); indexes within a group are i.i.d.
    """

    def __init__(self, groups):
        self.groups = [(m, int(k)) for m, k in groups]
        if any(k < 1 for _, k in self.groups):
            raise ValueError("group counts must be >= 1")

    def sum_e2(self):
        return sum(k * m.e2() for m, k in self.groups)

    def beta_terms(self):
        """sum_i [E g_i^2 I(|g_i|>1) + E|g_i|^3 I(|g_i|<=1)]."""
        return sum(k * (m.e2_above(1.0) + m.e_abs_p_below(3.0, 1.0))
                   for m, k in self.groups)

    def l_of(self, d):
        """L(d) = sum_i E|g_i| min(d, |g_i|); nondecreasing, L(inf) = sum E g^2."""
        return sum(k * m.e_abs_min(d) for m, k in self.groups)

    def trunc_sum(self, d):
        """sum_i E g_i^2 I(|g_i| > d); nonincreasing, right-continuous."""
        return sum(k * m.e2_above(d) for m, k in self.groups)

    def sum_abs_p(self, p):
        """(value, se) of sum_i E|g_i|^p; se is 0, every tier being exact."""
        return sum(k * m.e_abs_p(p) for m, k in self.groups), 0.0

    def sum_prob_above(self, t):
        return sum(k * m.prob_abs_above(t) for m, k in self.groups)

    def ks_exact(self):
        """sup |P(W <= w) - Phi(w)| where the law of W is known."""
        return None

    def prob_abs_w_minus_g_above(self, group: int, t: float):
        """P(|W - g_i| > t), i in `group`, where the law of W is known."""
        return None
