"""One-sample U-statistics of degree 2 and their normalized models.

The normalized statistic is T = sqrt(n) U_n / (m sigma_1), whose linear part
is W = sum_i g(X_i) / (sqrt(n) sigma_1) with g the first-order projection of
the kernel. A chunk reads each data row only through x_1 and its centred
power sums C1 = sum (x_i - mu) and C2 = sum (x_i - mu)^2, from which the
kernel gives the pair sum and W in closed form, so single-entry replacement
is O(1).

Under std_normal a chunk draws those sums, not the rows. The other n - 1
values enter only through their sum S and their sum of squares about their
own mean Q, which are independent with S ~ N(0, n - 1) and Q ~ chi2_{n-2}
(Cochran 1934). So a replicate is three draws, x_1, z and q, taken as
count-length columns from the chunk's generator one after another, and
C1 = x_1 + sqrt(n - 1) z, C2 = x_1^2 + (z^2 + q) have exactly the joint law
of the whole row's sums. The other laws have no such decomposition; their
chunks draw the rows a tile at a time (ChunkTiles) and sum them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..bound_core import delta_from_truncation
from ..errors import DegenerateModelError, UnsupportedModelError
from ..marginals import LinearPart
from ..special import gammainc, gammaincc
from ..types import UStatBoundInputs
from .base import DIST_CATALOG, ChunkTiles, StatisticModel, part_stream
from .fields import Spec, spec_field
from .kernels import KERNEL_CATALOG, kernel_abs_p
from .linear import StandardizedSum


@dataclass(frozen=True)
class UStatSpec(Spec):
    """Descriptor for a catalog one-sample U-statistic."""

    kernel: str = spec_field(catalog=KERNEL_CATALOG)
    dist: str = spec_field(catalog=DIST_CATALOG)
    n: int = spec_field(integer=True, minimum=3)
    m: int = spec_field(2, integer=True, minimum=2)

    def __post_init__(self):
        super().__post_init__()
        if self.m != 2:
            raise UnsupportedModelError("catalog kernels have degree 2")
        if KERNEL_CATALOG[self.kernel].sigma1_sq(DIST_CATALOG[self.dist]) <= 0:
            raise DegenerateModelError(
                f"{self.kernel} projection variance is zero under {self.dist}")


def ustat_moments(spec: UStatSpec, p: float = 3.0) -> dict:
    """Analytic ingredients for the degree-2 bounds, in raw kernel units."""
    return dict(_catalog_moments(spec.kernel, spec.dist, p))


@lru_cache(maxsize=64)
def _catalog_moments(kernel_name: str, dist_name: str, p: float) -> dict:
    """ustat_moments of a catalog pair; none of them depends on n, so an
    n-sweep computes them once."""
    kernel = KERNEL_CATALOG[kernel_name]
    dist = DIST_CATALOG[dist_name]
    s1 = math.sqrt(kernel.sigma1_sq(dist))
    marg = kernel.g_std_marginal(dist, 1.0)
    return {
        "sigma": math.sqrt(kernel.sigma_sq(dist)),
        "sigma1": s1,
        "e_abs_g_p": s1 ** p * marg.e_abs_p(p),
        "e_abs_h_p": kernel_abs_p(kernel_name, dist_name, p),
        "c0_trunc": delta_from_truncation(LinearPart([(marg, 1)])),
    }


class UStatModel(StatisticModel):
    """Normalized degree-2 U-statistic over i.i.d. catalog observations."""

    def __init__(self, spec: UStatSpec):
        self.spec = spec
        self.kernel = KERNEL_CATALOG[spec.kernel]
        self.dist = DIST_CATALOG[spec.dist]
        self.n = spec.n
        self.m = spec.m
        self.sigma1 = math.sqrt(self.kernel.sigma1_sq(self.dist))
        self.delta_is_zero = self.kernel.delta_is_zero
        self.name = f"ustat-{spec.kernel}-{spec.dist}-n{spec.n}-m{spec.m}"
        # the sum kernel's W is the standardized sum of the observations
        self.linear_part = (
            StandardizedSum(spec.dist, self.n) if self.delta_is_zero
            else LinearPart([(self.kernel.g_std_marginal(
                self.dist, 1.0 / math.sqrt(self.n)), self.n)]))
        # T = sqrt(n) U / (m sigma_1) = pair_sum * _t_scale
        self._t_scale = math.sqrt(self.n) / (
            self.m * self.sigma1 * math.comb(self.n, self.m))
        self._g_scale = 1.0 / (math.sqrt(self.n) * self.sigma1)

    def _t_w_from_power_sums(self, c1, c2):
        """(T, W) rows from the centred power sums of the data rows."""
        return (self.kernel.pair_sum_from_power_sums(
                    c1, c2, self.n, self.dist) * self._t_scale,
                self.kernel.linear_sum_from_power_sums(
                    c1, c2, self.n, self.dist) * self._g_scale)

    def _power_sums(self, rng, count, mode):
        """(x_1, C1, C2, {mode: replacement of x_1}) of `count` data rows,
        by the module docstring's path for the law."""
        if self.dist.name == "std_normal":
            x1 = rng.standard_normal(count)
            z = rng.standard_normal(count)
            q = rng.chisquare(self.n - 2, count)
            values = {m: 0.0 if m == "zero_out"
                      else part_stream(rng, 1).standard_normal(count)
                      for m in mode}
            return (x1, x1 + math.sqrt(self.n - 1) * z, x1 * x1 + (z * z + q),
                    values)
        c1, c2, x1 = np.empty((3, count))
        tiles = ChunkTiles(self.dist, rng, count, (self.n,), mode)
        for rows, (x,) in tiles:
            x1[rows] = x[:, 0]
            x -= self.dist.mean
            c1[rows] = x.sum(axis=1)
            np.square(x, out=x)
            c2[rows] = x.sum(axis=1)
        return x1, c1, c2, {m: v[0] for m, v in tiles.values.items()}

    def sample_chunk(self, rng, count, mode=()):
        x1, c1, c2, values = self._power_sums(
            rng, count, () if self.delta_is_zero else mode)
        t, w = self._t_w_from_power_sums(c1, c2)
        if self.delta_is_zero:
            t = w.copy()
        if not mode:
            return {"t": t, "w": w}
        g_rep = self.kernel.g_raw(x1, self.dist) * self._g_scale
        d1 = x1 - self.dist.mean
        dvar = {}
        for m in mode:
            if self.delta_is_zero:
                dvar[m] = np.zeros((count, 1))
                continue
            # swap the representative x_1 for v in the centred sums
            dv = values[m] - self.dist.mean
            t_new, w_new = self._t_w_from_power_sums(
                c1 - d1 + dv, c2 - d1 * d1 + dv * dv)
            dvar[m] = (t_new - w_new)[:, None]
        return {"t": t, "w": w, "delta": t - w,
                "g_rep": g_rep[:, None], "dvar_rep": dvar}

    def bound_inputs(self, p):
        return UStatBoundInputs(m=self.m, n=self.n, p=p,
                                **ustat_moments(self.spec, p))

    def prob_abs_w_minus_g_above(self, group, t):
        n = self.n
        if self.spec.kernel == "variance" and self.spec.dist == "std_normal":
            # W - g_1 = (chisq_{n-1} - (n-1)) / sqrt(2 n), and a chi-square
            # with k degrees of freedom is twice a gamma of shape k/2
            shift = t * math.sqrt(2.0 * n)
            return (gammaincc((n - 1) / 2, max(n - 1 + shift, 0.0) / 2)
                    + gammainc((n - 1) / 2, max(n - 1 - shift, 0.0) / 2))
        return super().prob_abs_w_minus_g_above(group, t)
