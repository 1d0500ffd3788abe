"""Per-index distribution summaries for the linear part.

A Marginal answers moment queries about one g_i(X_i): full and truncated
absolute moments, tail probabilities, and the capped first moment
E|g| min(d, |g|). Answers come from two tiers: closed forms where the
catalog has them, and otherwise adaptive quadrature (`belab.quadrature`)
over segments split at the kinks of |g|^p, each result checked against its
error estimate. Both tiers are exact up to the quadrature tolerance; the
sampled ingredients of a bound (the coupling moments of the remainder)
come from mc_engine, not from here.

A LinearPart groups identical marginals with counts and exposes the sums
that the bound formulas need.
"""
from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod

import numpy as np

from .quadrature import brentq, check_error, quad
from .special import gammainc, ndtr

QUAD_EPSABS = 1e-12
# quadrature windows, in standardized units; mass beyond is < 1e-30
NORMAL_CUT = 12.0
EXP_CUT = 60.0


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


def _memoized(e_abs_p):
    """Per-instance cache of a quadrature-backed full moment E|g|^p, which
    the capped and tail moments re-read at every threshold a solver tries."""
    @functools.wraps(e_abs_p)
    def cached(self, p):
        cache = self.__dict__.setdefault("_e_abs_p", {})
        if p not in cache:
            cache[p] = e_abs_p(self, p)
        return cache[p]
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


class QuadraticMarginal(Marginal):
    """g = a * ((X - b)^2 - c) for a base X with known density; a, c > 0.

    Covers centered-square projections. Region algebra: |g| <= t is
    |X - b| in [sqrt(max(0, c - t/a)), sqrt(c + t/a)].
    """

    def __init__(self, a, b, c, density, support, cdf):
        if a <= 0 or c <= 0:
            raise ValueError("a and c must be > 0")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.density = density
        self.x_lo, self.x_hi = support
        self.cdf = cdf

    def _clip(self, x):
        return min(max(x, self.x_lo), self.x_hi)

    def _g(self, x):
        return self.a * ((x - self.b) ** 2 - self.c)

    def _quad_abs_p(self, p, edges):
        fn = lambda x: np.abs(self._g(x)) ** p * self.density(x)
        return quad_segments(fn, edges)

    @_memoized
    def e_abs_p(self, p):
        root = math.sqrt(self.c)
        edges = {self.x_lo, self.x_hi, self._clip(self.b - root),
                 self._clip(self.b + root), self._clip(self.b)}
        return self._quad_abs_p(p, sorted(edges))

    def _region_points(self, t):
        lo = math.sqrt(max(0.0, self.c - t / self.a))
        hi = math.sqrt(self.c + t / self.a)
        return lo, hi

    def e_abs_p_below(self, p, t):
        if t <= 0:
            return 0.0
        lo, hi = self._region_points(t)
        segs = []
        left = (self._clip(self.b - hi), self._clip(self.b - lo))
        right = (self._clip(self.b + lo), self._clip(self.b + hi))
        for a, b in (left, right):
            if b > a:
                segs.append((a, b))
        total = 0.0
        for a, b in segs:
            mid = self._clip(self.b) if a < self.b < b else None
            edges = [a, b] if mid is None else [a, mid, b]
            total += self._quad_abs_p(p, edges)
        return total

    def prob_abs_above(self, t):
        if t < 0:
            return 1.0
        lo, hi = self._region_points(t)
        inside = (self.cdf(self._clip(self.b + lo)) - self.cdf(self._clip(self.b - lo))
                  if lo > 0 else 0.0)
        outside_hi = 1.0 - self.cdf(self._clip(self.b + hi)) if self.b + hi < self.x_hi else 0.0
        outside_lo = self.cdf(self._clip(self.b - hi)) if self.b - hi > self.x_lo else 0.0
        return max(0.0, outside_hi + outside_lo + inside)


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

    def _preimage(self, y):
        """x with fn(x) = y, clipped to the support."""
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
