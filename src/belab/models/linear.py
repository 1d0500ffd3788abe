"""Standardized i.i.d. sums: W = sum (X_i - mu) / (sqrt(n) sd).

`StandardizedSum` owns the analytic side of such a W: each term's marginal,
the exact sup-distance of W to the normal (0 for std_normal, the coin-flip
closed form for rademacher) and the tail of W - g_i. `sum_chunk` owns its
sampling. `LinearModel` (T = W), the sum-kernel U-statistic and the const1
L-statistic sample by it, and they and the perturbed-normal model build
StandardizedSum, so one W gets the same T, W and bound bits in every family.

`power_sums` reads a data row only through x_1 and its centred power sums
C1 = sum (x_i - mu) and C2 = sum (x_i - mu)^2. Under std_normal it draws
those sums, not the rows: the other n - 1 values enter only through their
sum S ~ N(0, n - 1) and their sum of squares about their own mean
Q ~ chi2_{n-2}, which are independent (Cochran 1934). So a replicate is
three count-length columns x_1, z and q, drawn from the chunk's generator
one after another, and C1 = x_1 + sqrt(n - 1) z, C2 = x_1^2 + (z^2 + q)
have exactly the joint law of the row's sums; no q is drawn at n = 2, where
Q = 0, nor z at n = 1. The other laws draw the rows a tile at a time
(ChunkTiles) and sum them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import UnsupportedModelError
from ..marginals import (
    AtomMarginal,
    ExpCenteredMarginal,
    LinearPart,
    NormalMarginal,
    UniformMarginal,
)
from ..special import gammainc, gammaincc, half_binom_cdf, ndtr
from .base import (
    DIST_CATALOG,
    BaseDist,
    ChunkTiles,
    StatisticModel,
    part_stream,
)
from .fields import Spec, spec_field


@dataclass(frozen=True)
class LinearSpec(Spec):
    """Descriptor for a standardized i.i.d. sum."""

    dist: str = spec_field(catalog=DIST_CATALOG)
    n: int = spec_field(integer=True, minimum=1)


def _unit_marginal(dist_name: str, scale: float):
    """Marginal of scale (X - mu)/sd for one catalog observation."""
    if dist_name == "std_normal":
        return NormalMarginal(scale)
    if dist_name == "uniform01":
        return UniformMarginal(math.sqrt(3.0) * scale)
    if dist_name == "rademacher":
        return AtomMarginal.rademacher(scale)
    if dist_name == "exponential1":
        return ExpCenteredMarginal(scale)
    raise UnsupportedModelError(dist_name)


def rademacher_ks_exact(n: int) -> float:
    """Exact sup |P(W <= w) - Phi(w)| for W a standardized coin-flip sum.

    W has atoms at (2k - n)/sqrt(n); the sup is attained at an atom, from
    the left or the right limit of the step function.
    """
    k = np.arange(n + 1)
    w = (2.0 * k - n) / math.sqrt(n)
    cdf_at = half_binom_cdf(k, n)
    cdf_before = np.concatenate([[0.0], cdf_at[:-1]])
    phi = ndtr(w)
    return float(np.maximum(np.abs(cdf_at - phi), np.abs(cdf_before - phi)).max())


class StandardizedSum(LinearPart):
    """The linear part of a standardized sum of n draws of a catalog law:
    n terms, each with the marginal of (X - mu) / (sqrt(n) sd)."""

    def __init__(self, dist_name: str, n: int):
        super().__init__([(_unit_marginal(dist_name, 1.0 / math.sqrt(n)), n)])
        self.dist_name, self.n = dist_name, n

    def ks_exact(self):
        if self.dist_name == "std_normal":
            return 0.0
        if self.dist_name == "rademacher":
            return rademacher_ks_exact(self.n)
        return None

    def prob_abs_w_minus_g_above(self, group, t):
        """W - g_1 is the standardized sum's other n - 1 terms: normal under
        std_normal, a shifted gamma under exponential1."""
        n = self.n
        if n == 1:
            return 0.0 if t >= 0 else 1.0
        if self.dist_name == "std_normal":
            return 2.0 * ndtr(-t / math.sqrt((n - 1) / n))
        if self.dist_name == "exponential1":
            shift = t * math.sqrt(n)
            return (gammaincc(n - 1, max(n - 1 + shift, 0.0))
                    + gammainc(n - 1, max(n - 1 - shift, 0.0)))
        return None


def power_sums(dist: BaseDist, n: int, rng, count: int, mode=()):
    """(x_1, C1, C2, {mode: replacement of x_1}) of `count` rows of n draws
    of dist, by the module docstring's path for the law."""
    if dist.name == "std_normal":
        x1 = rng.standard_normal(count)
        z = rng.standard_normal(count) if n > 1 else 0.0
        q = rng.chisquare(n - 2, count) if n > 2 else 0.0
        c1, c2 = x1 + math.sqrt(n - 1) * z, x1 * x1 + (z * z + q)
        values = {m: 0.0 if m == "zero_out"
                  else part_stream(rng, 1).standard_normal(count)
                  for m in mode}
        return x1, c1, c2, values
    c1, c2, x1 = np.empty((3, count))
    tiles = ChunkTiles(dist, rng, count, (n,), mode)
    for rows, (x,) in tiles:
        x1[rows] = x[:, 0]
        x -= dist.mean
        c1[rows] = x.sum(axis=1)
        np.square(x, out=x)
        c2[rows] = x.sum(axis=1)
    return x1, c1, c2, {m: v[0] for m, v in tiles.values.items()}


def sum_chunk(dist: BaseDist, n: int, rng, count: int, mode=()):
    """`StatisticModel.sample_chunk` of T = W, the standardized sum of n
    draws of dist: W = C1 / (sqrt(n) sd), a zero remainder in every mode,
    and no replacement value drawn."""
    x1, c1, _c2, _values = power_sums(dist, n, rng, count)
    scale = 1.0 / (math.sqrt(n) * math.sqrt(dist.var))
    w = c1 * scale
    t = w.copy()
    if not mode:
        return {"t": t, "w": w}
    g_rep = np.subtract(x1, dist.mean) * scale
    return {"t": t, "w": w, "delta": t - w, "g_rep": g_rep[:, None],
            "dvar_rep": {m: np.zeros((count, 1)) for m in mode}}


class LinearModel(StatisticModel):
    """Standardized i.i.d. sum; the remainder is structurally zero."""

    delta_is_zero = True

    def __init__(self, spec: LinearSpec):
        self.spec = spec
        self.dist = DIST_CATALOG[spec.dist]
        self.n = spec.n
        self.name = f"linear-{spec.dist}-n{spec.n}"
        self.linear_part = StandardizedSum(spec.dist, self.n)

    def sample_chunk(self, rng, count, mode=()):
        return sum_chunk(self.dist, self.n, rng, count, mode)
