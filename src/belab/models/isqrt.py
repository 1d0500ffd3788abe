"""Inverse-square-root perturbation of an exactly normal sum.

T = W - eps |W|^(-1/2) + eps * ISQRT_MEAN, with W standard normal and
ISQRT_MEAN = E|W|^(-1/2) = 2^(-1/4) Gamma(1/4) / sqrt(pi), so E Delta = 0.
The remainder has E|Delta|^q finite only for q < 2, which rules the
L2-flavored bounds out by construction while the first-moment machinery
still applies. W is realized as R + X_1 with R collecting the other n - 1
summands, so the representative-index variants need only two scalars per
replicate.

Conventions: at W = 0 (a null event) T = -inf. Sampling consumes draws in
the order R block, X_1 block, then in resample mode one fresh X_1 per
replicate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DomainError
from ..marginals import NORMAL_CUT, quad_segments
from .base import DIST_CATALOG, StatisticModel
from .fields import Spec, spec_field
from .linear import StandardizedSum

# E|Z|^(-1/2) for standard normal Z
ISQRT_MEAN = 2.0 ** (-0.25) * math.gamma(0.25) / math.sqrt(math.pi)

# |z| below which the kept part of the remainder changes sign
_Z_KINK = ISQRT_MEAN ** -2

_PHI = DIST_CATALOG["std_normal"].pdf
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Example41Spec(Spec):
    """Descriptor for the perturbed-normal counterexample family."""

    error = DomainError
    epsilon: float = spec_field()
    n: int = spec_field(100, integer=True, minimum=2)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")


def example41_transform(w, epsilon: float):
    """T as a function of W; -inf at W = 0."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore"):
        t = w - epsilon / np.sqrt(np.abs(w)) + epsilon * ISQRT_MEAN
    return np.where(w == 0.0, -np.inf, t)


def isqrt_delta(w, epsilon: float):
    """Delta = eps (ISQRT_MEAN - |W|^(-1/2)); -inf at W = 0."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore"):
        d = epsilon * (ISQRT_MEAN - 1.0 / np.sqrt(np.abs(w)))
    return np.where(w == 0.0, -np.inf, d)


@lru_cache(maxsize=32)
def delta_abs_moment(q: float = 1.0) -> float:
    """E|ISQRT_MEAN - |Z|^(-1/2)|^q, finite for q < 2."""
    if not 0.0 < q < 2.0:
        raise DomainError("the remainder has absolute moments only for q in (0, 2)")
    fn = lambda z: np.abs(ISQRT_MEAN - z ** -0.5) ** q * _PHI(z)
    return 2.0 * quad_segments(fn, [0.0, _Z_KINK, NORMAL_CUT], singular=(0.0,))


@lru_cache(maxsize=1)
def w_delta_abs_moment() -> float:
    """E|Z (ISQRT_MEAN - |Z|^(-1/2))|."""
    fn = lambda z: z * np.abs(ISQRT_MEAN - z ** -0.5) * _PHI(z)
    return 2.0 * quad_segments(fn, [0.0, _Z_KINK, NORMAL_CUT], singular=(0.0,))


def ks_lower_bound(epsilon: float) -> float:
    """Closed-form sup-distance lower bound between the laws of T and W.

    {T <= eps * ISQRT_MEAN} is exactly {W <= eps^(2/3)}, so the distance is
    at least Phi(eps^(2/3)) - Phi(eps * ISQRT_MEAN). It is taken as
    (erf(a / sqrt 2) - erf(b / sqrt 2)) / 2, which keeps its digits where
    both cdf values lie near 1/2 (a difference of Phi values loses them all
    below eps ~ 1e-24); DomainError is raised if it is not positive.
    """
    if not 0.0 < epsilon < ISQRT_MEAN ** -3:
        raise DomainError("the pinch point needs eps^(2/3) > eps * ISQRT_MEAN")
    gap = (math.erf(epsilon ** (2.0 / 3.0) / _SQRT2)
           - math.erf(epsilon * ISQRT_MEAN / _SQRT2)) / 2.0
    if gap > 0.0:
        return gap
    raise DomainError(f"Phi(eps^(2/3)) - Phi(eps * ISQRT_MEAN) rounds to "
                      f"{gap!r} at epsilon {epsilon!r}")


class IsqrtModel(StatisticModel):
    """Perturbed-normal counterexample with W = R + X_1 split."""

    supports_delta_l2 = False

    def __init__(self, spec: Example41Spec):
        self.spec = spec
        self.epsilon = float(spec.epsilon)
        self.n = int(spec.n)
        self.name = f"isqrt-eps{self.epsilon:g}-n{self.n}"
        self._x_sd = 1.0 / math.sqrt(self.n)
        self._r_sd = math.sqrt((self.n - 1) / self.n)
        # W is exactly standard normal: the standardized sum of n normals
        self.linear_part = StandardizedSum("std_normal", self.n)

    def sample_chunk(self, rng, count, mode=()):
        r = rng.standard_normal(count) * self._r_sd
        x1 = rng.standard_normal(count) * self._x_sd
        w = r + x1
        t = example41_transform(w, self.epsilon)
        if not mode:
            return {"t": t, "w": w}
        dvar = {}
        for m in mode:
            if m == "zero_out":
                v = np.zeros(count)
            else:
                v = rng.standard_normal(count) * self._x_sd
            dvar[m] = isqrt_delta(r + v, self.epsilon)[:, None]
        return {"t": t, "w": w, "delta": isqrt_delta(w, self.epsilon),
                "g_rep": x1[:, None], "dvar_rep": dvar}
