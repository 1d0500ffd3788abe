"""Shared value types: moment estimates, bound components and values, and
the analytic inputs of each application family's bounds.

Everything here is an immutable record. Instances are safe to share across
threads; all computation happens in the modules that produce them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import DegenerateModelError, DomainError


@dataclass(frozen=True)
class MomentEstimate:
    """A scalar moment with its sampling uncertainty.

    replicates == 0 marks an analytic or quadrature value, in which case
    std_error must be 0 as well.
    """

    value: float
    std_error: float = 0.0
    replicates: int = 0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.replicates == 0 and self.std_error != 0.0:
            raise ValueError("analytic/quadrature estimates carry std_error 0")

    def __add__(self, other):
        """The sum, with the errors added (first order) and the larger
        replicate count; a plain number adds as an analytic value."""
        if not isinstance(other, MomentEstimate):
            other = MomentEstimate(other)
        return MomentEstimate(self.value + other.value,
                              self.std_error + other.std_error,
                              max(self.replicates, other.replicates))

    def __rmul__(self, c: float):
        """c times the estimate, with error |c| times its error."""
        return MomentEstimate(c * self.value, abs(c) * self.std_error,
                              self.replicates)


@dataclass(frozen=True)
class BoundComponents:
    """Ingredients of the general uniform and non-uniform bounds, each a
    MomentEstimate: sampled (the engine's `sample_pass` returns one record
    per variant mode) or analytic.

    delta_l2 and sum_g_l2_delta_l2 are None where Delta has no second
    moment; delta_tails maps a threshold thr to P(|Delta| > thr). beta and
    delta are None until supplied (as_bound_components).
    """

    e_abs_w_delta: MomentEstimate
    sum_g_delta_diff: MomentEstimate
    delta_abs: MomentEstimate
    delta_l2: MomentEstimate | None = None
    sum_g_l2_delta_l2: MomentEstimate | None = None
    delta_tails: dict = field(default_factory=dict)
    beta: MomentEstimate | None = None
    delta: MomentEstimate | None = None

    def __post_init__(self):
        for name in ("beta", "e_abs_w_delta", "sum_g_delta_diff", "delta_abs",
                     "delta_l2", "sum_g_l2_delta_l2"):
            est = getattr(self, name)
            if est is not None and est.value < 0:
                raise ValueError(f"{name} must be >= 0, got {est.value}")
        if self.delta is not None and self.delta.value <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta.value}")

    def as_bound_components(self, beta: MomentEstimate,
                            delta: float) -> BoundComponents:
        """This record with beta and the analytic delta supplied."""
        return replace(self, beta=beta, delta=MomentEstimate(delta))


@dataclass(frozen=True)
class BoundValue:
    """A bound split into an explicit part and a part carrying the unspecified
    absolute constant. Pass/fail verification may only consume bounds with
    c_coeff == 0; the constant itself is never assigned a number.
    """

    known: float
    c_coeff: float
    known_se: float = 0.0

    def __post_init__(self):
        if self.known < 0 or self.c_coeff < 0 or self.known_se < 0:
            raise ValueError("bound parts must be >= 0")

    @property
    def verifiable(self) -> bool:
        return self.c_coeff == 0.0


@dataclass(frozen=True)
class KSResult:
    """Empirical Kolmogorov distance with a distribution-free confidence radius."""

    distance: float
    replicates: int
    dkw_radius: float

    def __post_init__(self):
        if not 0.0 <= self.distance <= 1.0:
            raise ValueError("distance must lie in [0, 1]")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


def p_in_range(p: float) -> bool:
    """Whether p is a moment order the bounds take, 2 < p <= 3."""
    return 2.0 < p <= 3.0


def check_p(p: float):
    if not p_in_range(p):
        raise DomainError(f"p must lie in (2, 3], got {p}")


@dataclass(frozen=True)
class UStatBoundInputs:
    """Analytic ingredients of the degree-m one-sample bounds.

    Moments are in raw kernel units; every bound consumes only scale-free
    ratios, so rescaling h by c > 0 leaves all values unchanged.
    """

    m: int
    n: int
    sigma: float
    sigma1: float
    e_abs_g_p: float
    p: float
    c0_trunc: float
    e_abs_h_p: float

    def __post_init__(self):
        if not 2 <= self.m < self.n:
            raise DomainError("need 2 <= m < n")
        if self.sigma1 <= 0:
            raise DegenerateModelError("projection scale must be positive")
        check_p(self.p)


@dataclass(frozen=True)
class MultiBoundInputs:
    """Analytic ingredients of the multisample bounds."""

    sigma: float
    sn: float
    m: tuple
    n: tuple
    e_abs_h_p: tuple
    p: float

    def __post_init__(self):
        if self.sn <= 0:
            raise DegenerateModelError("combined scale must be positive")
        check_p(self.p)
        if not len(self.m) == len(self.n) == len(self.e_abs_h_p):
            raise DomainError("group fields must have equal lengths")


@dataclass(frozen=True)
class LStatBoundInputs:
    """Analytic ingredients of the order-statistic bounds."""

    c_lip: float
    x2_moment: float  # E X^2
    sigma: float
    e_abs_g_p: float  # E|infl(X)|^p, raw influence units
    p: float
    n: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise DegenerateModelError("projection scale must be positive")
        if self.n < 4:
            raise DomainError("need n >= 4")
        check_p(self.p)
