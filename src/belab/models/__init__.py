"""Model catalog and the descriptor-to-model builder."""
from __future__ import annotations

from ..errors import InvalidModelError
from .base import (
    DIST_CATALOG,
    ENUMERATION_CAP,
    VARIANT_MODES,
    BaseDist,
    StatisticModel,
)
from .isqrt import Example41Spec, IsqrtModel, example41_alpha, example41_transform
from .kernels import KERNEL_CATALOG, PairKernel
from .linear import LinearModel, LinearSpec, rademacher_ks_exact
from .lstat import (
    WEIGHT_CATALOG,
    LStatModel,
    LStatSpec,
    lstat_projection_sigma,
    lstat_value,
)
from .multisample import MultiUStatSpec, WilcoxonModel, multisample_sigma, multisample_value
from .ustat import UStatModel, UStatSpec, hajek_projection, ustat_moments, ustat_value

FAMILIES = ("linear", "ustat", "multisample", "lstat", "isqrt")


def build_spec(desc: dict):
    """The family's spec dataclass for a plain descriptor mapping; the spec
    checks the domain of its fields as it is built."""
    if not isinstance(desc, dict):
        raise InvalidModelError(f"model descriptor must be a mapping, got {type(desc).__name__}")
    family = desc.get("family")
    try:
        if family == "linear":
            return LinearSpec(dist=desc["dist"], n=int(desc["n"]))
        if family == "ustat":
            return UStatSpec(kernel=desc["kernel"], dist=desc["dist"],
                             n=int(desc["n"]), m=int(desc.get("m", 2)))
        if family == "multisample":
            n = desc["n"]
            if isinstance(n, str):
                n = [int(part) for part in n.split(";")]
            return MultiUStatSpec(
                kernel=desc.get("kernel", "wilcoxon"), dist=desc["dist"],
                n=tuple(int(v) for v in n),
                m=tuple(int(v) for v in desc.get("m", (1, 1))))
        if family == "lstat":
            return LStatSpec(weight=desc["weight"], dist=desc["dist"],
                             n=int(desc["n"]))
        if family == "isqrt":
            return Example41Spec(epsilon=float(desc["epsilon"]),
                                 n=int(desc.get("n", 100)))
    except KeyError as exc:
        raise InvalidModelError(f"model descriptor missing field {exc}") from exc
    raise InvalidModelError(
        f"unknown model family {family!r}; expected one of {FAMILIES}")


_MODEL_FOR_SPEC = {
    LinearSpec: LinearModel,
    UStatSpec: UStatModel,
    MultiUStatSpec: WilcoxonModel,
    LStatSpec: LStatModel,
    Example41Spec: IsqrtModel,
}


def build_model(desc: dict) -> StatisticModel:
    """Instantiate a catalog model from a plain descriptor mapping."""
    spec = build_spec(desc)
    return _MODEL_FOR_SPEC[type(spec)](spec)


__all__ = [
    "BaseDist", "DIST_CATALOG", "ENUMERATION_CAP", "Example41Spec", "FAMILIES",
    "IsqrtModel", "KERNEL_CATALOG", "LStatModel", "LStatSpec", "LinearModel",
    "LinearSpec", "MultiUStatSpec", "PairKernel", "StatisticModel",
    "UStatModel", "UStatSpec", "VARIANT_MODES", "WEIGHT_CATALOG",
    "WilcoxonModel",
    "build_model", "build_spec", "example41_alpha", "example41_transform",
    "hajek_projection", "lstat_projection_sigma", "lstat_value",
    "multisample_sigma", "multisample_value", "rademacher_ks_exact",
    "ustat_moments", "ustat_value",
]
