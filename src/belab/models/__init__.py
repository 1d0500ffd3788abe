"""Model catalog and the descriptor-to-model builder."""
from __future__ import annotations

import dataclasses

from ..errors import InvalidModelError
from .base import (
    DIST_CATALOG,
    VARIANT_MODES,
    BaseDist,
    StatisticModel,
)
from .fields import catalog_names, read_field, read_fields
from .isqrt import Example41Spec, IsqrtModel, example41_transform
from .kernels import KERNEL_CATALOG, PairKernel
from .linear import LinearModel, LinearSpec, rademacher_ks_exact
from .lstat import WEIGHT_CATALOG, LStatModel, LStatSpec
from .multisample import MultiUStatSpec, WilcoxonModel, multisample_sigma
from .ustat import UStatModel, UStatSpec, ustat_moments

# each family's spec and model class
FAMILY_CATALOG = {
    "linear": (LinearSpec, LinearModel),
    "ustat": (UStatSpec, UStatModel),
    "multisample": (MultiUStatSpec, WilcoxonModel),
    "lstat": (LStatSpec, LStatModel),
    "isqrt": (Example41Spec, IsqrtModel),
}
FAMILIES = tuple(FAMILY_CATALOG)


def read_spec(desc: dict, errs: list, path: str = "model"):
    """The spec of a descriptor mapping, or None with every violation of its
    family and fields, a field the family does not take among them,
    appended to errs as '<path>.<field>: <text>'. The spec's own checks
    across fields raise its error type."""
    before = len(errs)
    family = read_field(desc, "family", errs, f"{path}.family",
                        catalog=FAMILIES)
    if len(errs) > before:
        return None
    spec_type = FAMILY_CATALOG[family][0]
    known = ["family", *(f.name for f in dataclasses.fields(spec_type))]
    for name in desc:
        if name not in known:
            errs.append(f"{path}.{name}: unknown field; {family} takes "
                        f"{catalog_names(known)}")
    values = read_fields(spec_type, desc, errs, path)
    return spec_type(**values) if len(errs) == before else None


def build_spec(desc: dict):
    """The family's spec dataclass for a plain descriptor mapping."""
    if not isinstance(desc, dict):
        raise InvalidModelError(f"model descriptor must be a mapping, got {type(desc).__name__}")
    errs = []
    spec = read_spec(desc, errs)
    if errs:
        raise InvalidModelError("; ".join(errs))
    return spec


def with_size(desc: dict, n: int) -> dict:
    """The descriptor with its size set to n, in each sample where the
    family's size is a pair."""
    spec_type = FAMILY_CATALOG[desc["family"]][0]
    pair = spec_type.__dataclass_fields__["n"].metadata["kind"].get("pair")
    return {**desc, "n": f"{n};{n}" if pair else n}


def build_model(desc: dict) -> StatisticModel:
    """Instantiate a catalog model from a plain descriptor mapping."""
    spec = build_spec(desc)
    return FAMILY_CATALOG[desc["family"]][1](spec)


__all__ = [
    "BaseDist", "DIST_CATALOG", "Example41Spec", "FAMILIES", "FAMILY_CATALOG",
    "IsqrtModel", "KERNEL_CATALOG", "LStatModel", "LStatSpec", "LinearModel",
    "LinearSpec", "MultiUStatSpec", "PairKernel", "StatisticModel",
    "UStatModel", "UStatSpec", "VARIANT_MODES", "WEIGHT_CATALOG",
    "WilcoxonModel",
    "build_model", "build_spec", "example41_transform",
    "multisample_sigma", "rademacher_ks_exact",
    "read_spec", "with_size", "ustat_moments",
]
