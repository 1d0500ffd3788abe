"""Shared value types.

Everything here is an immutable record. Instances are safe to share across
threads; all computation happens in the modules that produce them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace


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

    @property
    def analytic(self) -> bool:
        return self.replicates == 0

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
class NonUniformInputs:
    """Tail probabilities entering the non-uniform bound at a point z."""

    z: float
    p_delta_tail: MomentEstimate
    sum_p_g_tail: float = 0.0
    sum_p_w_minus_g_tail: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_delta_tail.value <= 1.0:
            raise ValueError("p_delta_tail must be a probability")
        if self.sum_p_g_tail < 0 or self.sum_p_w_minus_g_tail < 0:
            raise ValueError("tail sums must be >= 0")


@dataclass(frozen=True)
class BoundValue:
    """A bound split into an explicit part and a part carrying the unspecified
    absolute constant. Pass/fail verification may only consume bounds with
    c_coeff == 0; the constant itself is never assigned a number.
    """

    known: float
    c_coeff: float
    equation_tag: str
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
