"""Symmetric pair kernels for one-sample U-statistics.

Each kernel knows its first-order projection, the analytic variances
sigma^2 = Var h and sigma_1^2 = Var g, a Marginal for the standardized
projection g/sigma_1, and closed-form sums of the projections and of the
pairs in terms of the centred power sums C1 = sum (x_i - mu) and
C2 = sum (x_i - mu)^2 (which makes single-entry replacement an O(1)
update). E|h|^p is one integral against the law of the one variable that h
reads: E|g|^p of the QuadraticMarginal of D = X - Y for the variance
kernel, and E|S|^p of S = X + Y - 2 mu for the sum kernel, closed form but
under exponential1 at p != 3.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from ..errors import UnsupportedModelError
from ..marginals import (
    EXP_CUT,
    QuadraticMarginal,
    normal_abs_moment,
    quad_segments,
)
from .base import DIST_CATALOG, LAPLACE, TRIANGLE, BaseDist
from .linear import _unit_marginal

# (a, law of D) with h = a (D^2 - var D) for the variance kernel: D = X - Y
# and a = 1/2, but under std_normal D = (X - Y)/sqrt(2) and a = 1
_DIFFERENCE_LAWS = {
    "std_normal": (1.0, DIST_CATALOG["std_normal"]),
    "uniform01": (0.5, TRIANGLE),
    "exponential1": (0.5, LAPLACE),
}


class PairKernel(ABC):
    """Symmetric kernel h(x, y) with E h = 0 under the product law."""

    name: str
    m = 2
    # True where T is exactly its linear part, the standardized sum
    delta_is_zero = False

    @abstractmethod
    def h(self, x, y, dist: BaseDist):
        """Kernel values, vectorized."""

    @abstractmethod
    def g_raw(self, x, dist: BaseDist):
        """Projection E[h(x, Y)], vectorized."""

    @abstractmethod
    def sigma1_sq(self, dist: BaseDist) -> float: ...

    @abstractmethod
    def sigma_sq(self, dist: BaseDist) -> float: ...

    @abstractmethod
    def pair_sum_from_power_sums(self, c1, c2, n: int, dist: BaseDist):
        """sum_{i<j} h(x_i, x_j) from C1, C2 (scalar or vectorized)."""

    @abstractmethod
    def linear_sum_from_power_sums(self, c1, c2, n: int, dist: BaseDist):
        """sum_i g_raw(x_i) from C1, C2 (scalar or vectorized)."""

    @abstractmethod
    def g_std_marginal(self, dist: BaseDist, scale: float):
        """Marginal of scale g_raw(X)/sigma_1 (variance scale^2)."""

    @abstractmethod
    def h_abs_p(self, dist: BaseDist, p: float) -> float:
        """E|h(X, Y)|^p for X, Y independent draws of dist."""


class VarianceKernel(PairKernel):
    """h(x, y) = ((x - y)^2 - 2 V) / 2, the unbiased variance kernel."""

    name = "variance"

    def h(self, x, y, dist):
        return ((np.asarray(x) - np.asarray(y)) ** 2 - 2.0 * dist.var) / 2.0

    def g_raw(self, x, dist):
        return (np.square(np.subtract(x, dist.mean)) - dist.var) / 2.0

    def sigma1_sq(self, dist):
        return (dist.mu4 - dist.var ** 2) / 4.0

    def sigma_sq(self, dist):
        return (dist.mu4 + dist.var ** 2) / 2.0

    def pair_sum_from_power_sums(self, c1, c2, n, dist):
        return (n * c2 - c1 ** 2) / 2.0 - (n * (n - 1) / 2.0) * dist.var

    def linear_sum_from_power_sums(self, c1, c2, n, dist):
        return (c2 - n * dist.var) / 2.0

    def g_std_marginal(self, dist, scale):
        s1 = math.sqrt(self.sigma1_sq(dist))
        if s1 == 0.0:
            raise UnsupportedModelError(
                f"{self.name}: projection is degenerate for {dist.name}")
        return QuadraticMarginal(1.0 / (2.0 * s1) * scale, dist)

    def h_abs_p(self, dist, p):
        if dist.name not in _DIFFERENCE_LAWS:
            raise UnsupportedModelError(
                f"{self.name}: no kernel moment oracle for {dist.name}")
        return QuadraticMarginal(*_DIFFERENCE_LAWS[dist.name]).e_abs_p(p)


class SumKernel(PairKernel):
    """h(x, y) = (x - mu) + (y - mu); the statistic is exactly linear."""

    name = "sum"
    delta_is_zero = True

    def h(self, x, y, dist):
        return (np.asarray(x) - dist.mean) + (np.asarray(y) - dist.mean)

    def g_raw(self, x, dist):
        return np.subtract(x, dist.mean)

    def sigma1_sq(self, dist):
        return dist.var

    def sigma_sq(self, dist):
        return 2.0 * dist.var

    def pair_sum_from_power_sums(self, c1, c2, n, dist):
        return (n - 1) * c1

    def linear_sum_from_power_sums(self, c1, c2, n, dist):
        return c1

    def g_std_marginal(self, dist, scale):
        return _unit_marginal(dist.name, scale)

    def h_abs_p(self, dist, p):
        if dist.name == "std_normal":
            return normal_abs_moment(p) * 2.0 ** (p / 2.0)
        if dist.name == "rademacher":
            # h is +-2 with probability 1/4 each and 0 with probability 1/2
            return 2.0 ** (p - 1.0)
        if dist.name == "uniform01":
            # h has density 1 - |s| on [-1, 1]
            return 2.0 / ((p + 1.0) * (p + 2.0))
        # exponential1: h + 2 is Gamma(2), density (s + 2) e^-(s + 2) at h = s
        if p == 3.0:
            return 72.0 * math.exp(-2.0) - 4.0
        fn = lambda s: np.abs(s) ** p * (s + 2.0) * np.exp(-(s + 2.0))
        return quad_segments(fn, [-2.0, 0.0, EXP_CUT])


KERNEL_CATALOG = {
    "variance": VarianceKernel(),
    "sum": SumKernel(),
}


@lru_cache(maxsize=64)
def kernel_abs_p(kernel_name: str, dist_name: str, p: float) -> float:
    """Cached E|h|^p for a catalog kernel under a catalog distribution."""
    return KERNEL_CATALOG[kernel_name].h_abs_p(DIST_CATALOG[dist_name], p)
