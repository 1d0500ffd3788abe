"""Linear combinations of order statistics T(F_n) = (1/n) sum X_(i) J(i/n).

The normalized statistic is sqrt(n)(T(F_n) - T(F)) / sigma with
T(F) = E[X J(F(X))] and sigma^2 the double integral of
J(F(s)) J(F(t)) F(s ^ t)(1 - F(s v t)). The linear terms come from the
influence function infl(x) = integral (I(x <= s) - F(s)) J(F(s)) ds via
g_i = -infl(X_i) / (sqrt(n) sigma); infl is nonincreasing for J >= 0, so the
per-index marginal is a monotone transform of X.

Every catalog weight is affine, so each catalog pair has sigma^2 =
Var infl(X) and T(F) in closed form (catalog_scale), with its float
operations written out: no value depends on a quadrature's summation order.
tests/oracles.py keeps the double integral and E infl(X)^2 as their
cross-check.

Every score function is affine, J(t) = a + b t, so the weight j_k = J(k/n)/n
of rank k steps by b/n^2 from rank to rank. A chunk sorts each row once and
takes T = sum_k x_(k) j_k by a fixed-order row reduction. Replacing cur, of
rank p, by v, of rank q among the other values, moves the values of ranks
[q, p) up one rank or those of (p, q] down one, so, with no second sort,
T_var = T - cur j_p + v j_q + sign(p - q) (b/n^2) (sum of the moved values).
The ranks p and q come from the sorted tile by one lockstep binary search
over cur and every replacement at once (`base.sorted_counts`).

The linear terms take the scale -1/(sqrt(n) sigma) as the last product of
the influence's ufunc chain (`influence_closed(..., factor)`). uniform01's
influence 1/6 - x^2/2 is (1/3 - x^2)/2 exactly, and halving commutes with
rounding, so the halving moves into that product: the projection is x^2,
1/3 - x^2 and one multiply, with the bits of the four-step form.

The const1 weight makes T the standardized sample mean, which is W itself,
so its chunk and linear part are the linear model's (`linear.sum_chunk`,
`linear.StandardizedSum`): it sorts no row, and its remainder is zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedModelError
from ..marginals import LinearPart, MonotoneMarginal
from ..special import ndtr, ndtr_array
from ..types import LStatBoundInputs
from .base import (
    DIST_CATALOG,
    BaseDist,
    ChunkTiles,
    StatisticModel,
    projection_sums,
    sorted_counts,
)
from .fields import Spec, spec_field
from .linear import StandardizedSum, sum_chunk

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class WeightFn:
    """Affine score function J(t) = a + b t on [0, 1], Lipschitz with
    constant |b|."""

    name: str
    a: float
    b: float

    def fn(self, t):
        """J at t, a float or a float array."""
        return self.a + self.b * t


WEIGHT_CATALOG = {
    "const1": WeightFn("const1", 1.0, 0.0),
    "identity": WeightFn("identity", 0.0, 1.0),
}


@dataclass(frozen=True)
class LStatSpec(Spec):
    """Descriptor for a catalog L-statistic."""

    weight: str = spec_field(catalog=WEIGHT_CATALOG)
    dist: str = spec_field(catalog=DIST_CATALOG)
    n: int = spec_field(integer=True, minimum=4)

    def __post_init__(self):
        super().__post_init__()
        if not DIST_CATALOG[self.dist].continuous:
            raise UnsupportedModelError(
                "order-statistic weights need a continuous distribution")


def influence_closed(weight: WeightFn, dist: BaseDist, cdf=ndtr, factor=1.0):
    """Vectorized influence function for catalog (weight, dist) pairs,
    times `factor`, written into `out` where given; std_normal's takes Phi
    from `cdf`. The product is that of the influence with factor, bit for
    bit: uniform01's 1/6 - x^2/2 is taken as (1/3 - x^2) (factor / 2),
    whose halving is exact either side of the rounding."""
    if weight.name == "const1":
        def infl(x, out=None):
            g = np.subtract(dist.mean, x, out=out)
            return np.multiply(g, factor, out=out)
        return infl
    if weight.name == "identity":
        if dist.name == "uniform01":
            def infl(x, out=None):
                sq = np.square(x, out=out)
                sq = np.subtract(1.0 / 3.0, sq, out=out)
                return np.multiply(sq, factor / 2.0, out=out)
            return infl
        if dist.name == "std_normal":
            def infl(x, out=None):
                x = np.asarray(x, dtype=float)
                g = np.subtract(1.0 / _SQRT_PI, x * cdf(x))
                phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
                g = np.subtract(g, phi, out=out)
                return np.multiply(g, factor, out=out)
            return infl
        if dist.name == "exponential1":
            def infl(x, out=None):
                g = np.subtract(1.5, x, out=out)
                g = np.subtract(g, np.exp(np.negative(x)), out=out)
                return np.multiply(g, factor, out=out)
            return infl
    raise UnsupportedModelError(
        f"no closed-form influence for {weight.name} under {dist.name}")


# (sigma^2, T(F)) of each catalog pair
_SCALES = {
    ("const1", "uniform01"): (1.0 / 12.0, 0.5),
    ("const1", "std_normal"): (1.0, 0.0),
    ("const1", "exponential1"): (1.0, 1.0),
    ("identity", "uniform01"): (1.0 / 45.0, 1.0 / 3.0),
    ("identity", "std_normal"): (
        1.0 / 3.0 + (math.sqrt(3.0) - 2.0) / (2.0 * math.pi),
        1.0 / (2.0 * _SQRT_PI)),
    ("identity", "exponential1"): (7.0 / 12.0, 0.75),
}


def catalog_scale(weight_name: str, dist_name: str):
    """(influence, sigma, T(F)) of a catalog pair; none of them depends on
    n."""
    s_sq, center = _SCALES[weight_name, dist_name]
    infl = influence_closed(WEIGHT_CATALOG[weight_name],
                            DIST_CATALOG[dist_name])
    return infl, math.sqrt(s_sq), center


class LStatModel(StatisticModel):
    """Catalog L-statistic over i.i.d. continuous observations."""

    def __init__(self, spec: LStatSpec):
        self.spec = spec
        self.weight = WEIGHT_CATALOG[spec.weight]
        self.dist = DIST_CATALOG[spec.dist]
        self.n = spec.n
        self.name = f"lstat-{spec.weight}-{spec.dist}-n{spec.n}"
        self.delta_is_zero = spec.weight == "const1"
        self._infl, self.sigma, self._center = catalog_scale(spec.weight,
                                                             spec.dist)
        self._jvec = self.weight.fn(np.arange(1, self.n + 1) / self.n) / self.n
        self._scale = 1.0 / (math.sqrt(self.n) * self.sigma)
        # the linear terms g = -infl(x) / (sqrt(n) sigma); the normal cdf
        # is ndtr_array's, so no value depends on the size of x
        self._g_rows = influence_closed(self.weight, self.dist,
                                        cdf=ndtr_array, factor=-self._scale)
        # const1's W is the standardized sum; otherwise the marginal of -g_i
        # = infl(X)/(sqrt(n) sigma), whose |g_i| oracles are sign-invariant,
        # which is all the bounds consume
        self.linear_part = (
            StandardizedSum(spec.dist, self.n) if self.delta_is_zero
            else LinearPart([(MonotoneMarginal(
                lambda x: self._infl(x) * self._scale, *self.dist.support,
                self.dist.pdf, cdf=self.dist.cdf), self.n)]))
        self.x2_moment = self.dist.var + self.dist.mean ** 2

    def sample_chunk(self, rng, count, mode=()):
        if self.delta_is_zero:
            return sum_chunk(self.dist, self.n, rng, count, mode)
        w, rep, t = np.empty((3, count))
        t_var = {m: np.empty(count) for m in mode}
        tiles = ChunkTiles(self.dist, rng, count, (self.n,), mode)
        for rows, (x,) in tiles:
            w[rows], rep[rows] = projection_sums(x, self._g_rows,
                                                 tiles.scratch)
            cur = x[:, 0].copy()
            # T reads only the order statistics, so x is sorted in place
            x.sort(axis=1)
            t[rows] = np.einsum("ij,j->i", x, self._jvec)
            if not mode:
                continue
            fresh = [tiles.values[m][0, rows] for m in mode]
            rank, *below = sorted_counts(x, np.array([cur, *fresh]))
            for m, v, b in zip(mode, fresh, below):
                t_var[m][rows] = self._replaced(x, t[rows], rank, cur, v, b)
        values = tiles.values
        x = tiles = None  # frees the last tile and the scratch buffer
        scale = math.sqrt(self.n) / self.sigma
        t = (t - self._center) * scale
        if not mode:
            return {"t": t, "w": w}
        dvar = {}
        for m in mode:
            gv = self._g_rows(values[m][0])
            tv = (t_var[m] - self._center) * scale
            dvar[m] = (tv - (w - rep + gv))[:, None]
        return {"t": t, "w": w, "delta": t - w,
                "g_rep": rep[:, None], "dvar_rep": dvar}

    def _replaced(self, x, t, p, cur, v, below):
        """T of each sorted row of x, whose T is t, with its value cur at
        rank p replaced by v, of which `below` values of the row are
        smaller, by the module docstring's update; where q == p the run
        [lo, hi) is x_(p) alone, and sign(p - q) zeroes it."""
        q = below - (cur < v)
        lo, hi = np.minimum(q, p + 1), np.maximum(p, q + 1)
        starts = np.arange(0, x.size, self.n)
        bounds = np.column_stack((starts + lo, starts + hi)).ravel()
        # from its last index, reduceat sums to the end of x
        run = np.add.reduceat(x.ravel(), bounds[:-1] if hi[-1] == self.n
                              else bounds)[::2]
        step = self.weight.b / self.n ** 2 * np.sign(p - q)
        return t - cur * self._jvec[p] + v * self._jvec[q] + step * run

    def influence_abs_moment(self, p: float) -> float:
        """E|infl(X)|^p in raw influence units."""
        marg, _count = self.linear_part.groups[0]
        return marg.e_abs_p(p) * (math.sqrt(self.n) * self.sigma) ** p

    def bound_inputs(self, p):
        return LStatBoundInputs(
            c_lip=abs(self.weight.b), x2_moment=self.x2_moment, p=p, n=self.n,
            sigma=self.sigma, e_abs_g_p=self.influence_abs_moment(p))
