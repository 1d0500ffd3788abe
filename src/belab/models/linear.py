"""Standardized i.i.d. sums: W = sum (X_i - mu) / (sqrt(n) sd).

`StandardizedSum` owns the analytic side of such a W: each term's marginal,
the exact sup-distance of W to the normal (0 for std_normal, the coin-flip
closed form for rademacher) and the tail of W - g_i. `LinearModel` (T = W),
the sum-kernel U-statistic, the const1 L-statistic and the perturbed-normal
model all build it, so one W gets the same bound bits in every family.
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
    ChunkTiles,
    StatisticModel,
    projection_sums,
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


class LinearModel(StatisticModel):
    """Standardized i.i.d. sum; the remainder is structurally zero."""

    delta_is_zero = True

    def __init__(self, spec: LinearSpec):
        self.spec = spec
        self.dist = DIST_CATALOG[spec.dist]
        self.n = spec.n
        self.name = f"linear-{spec.dist}-n{spec.n}"
        self._scale = 1.0 / (math.sqrt(self.n) * math.sqrt(self.dist.var))
        self.linear_part = StandardizedSum(spec.dist, self.n)

    def sample_chunk(self, rng, count, mode=()):
        w, rep = np.empty((2, count))
        tiles = ChunkTiles(self.dist, rng, count, (self.n,))
        for rows, (x,) in tiles:
            w[rows], rep[rows] = projection_sums(
                x, self._g_rows, tiles.scratch)
        t = w.copy()
        if not mode:
            return {"t": t, "w": w}
        return {"t": t, "w": w, "delta": np.zeros(count), "g_rep": rep[:, None],
                "dvar_rep": {m: np.zeros((count, 1)) for m in mode}}

    def _g_rows(self, x, out=None):
        """The linear terms (x - mu) / (sqrt(n) sd)."""
        g = np.subtract(x, self.dist.mean, out=out)
        return np.multiply(g, self._scale, out=out)
