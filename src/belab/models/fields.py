"""Spec fields, each declared once with `spec_field`: its type, minimum,
catalog and default. Descriptors are read against the declarations with
every violation reported, and a spec checks its own values against them."""
from __future__ import annotations

import math
from dataclasses import MISSING, field, fields

from ..errors import UnsupportedModelError


def is_number(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def read_number(v, integer=False, minimum=None, maximum=None):
    """v as a number, an int where `integer`; a violation raises ValueError
    with its text."""
    if not is_number(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    if integer:
        if isinstance(v, float) and not v.is_integer():
            raise ValueError(f"expected an integer, got {v!r}")
        v = int(v)
    if minimum is not None and v < minimum:
        raise ValueError(f"must be >= {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ValueError(f"must be <= {maximum}, got {v!r}")
    return v


def catalog_names(names) -> str:
    return ", ".join(sorted(names))


def parsed_int(v):
    """Text, a pair element or a flag's value, as an int where it parses
    as one; anything else unchanged."""
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError:
            pass
    return v


def read_value(value, path, errs, catalog=None, pair=None, integer=False,
               minimum=None, maximum=None):
    """value read as a name from `catalog`, a pair of the values that `pair`
    describes ("a;b" or [a, b]), or else a number, an int where `integer`,
    in [minimum, maximum]; None with each violation appended to errs as
    'path: text'."""
    if catalog is not None:
        if isinstance(value, str) and value in catalog:
            return value
        errs.append(f"{path}: unknown {value!r}; "
                    f"catalog: {catalog_names(catalog)}")
        return None
    if pair:
        parts = value.split(";") if isinstance(value, str) else value
        if not isinstance(parts, (list, tuple)) or len(parts) != 2:
            errs.append(f"{path}: expected {pair}")
            return None
        got = tuple(read_value(parsed_int(v), f"{path}[{k}]", errs,
                               integer=integer, minimum=minimum)
                    for k, v in enumerate(parts))
        return None if None in got else got
    try:
        return read_number(value, integer, minimum, maximum)
    except ValueError as exc:
        errs.append(f"{path}: {exc}")
        return None


def spec_field(default=MISSING, **kind):
    """A spec's dataclass field, read as `read_value(..., **kind)`; the
    default serves the constructor and a descriptor that leaves the field
    out, and a field without one is required."""
    return field(default=default, metadata={"kind": kind, "default": default})


def read_field(desc: dict, name: str, errs: list, path: str, default=MISSING,
               **kind):
    """desc[name] read as `read_value(..., **kind)`, or the default of an
    absent field; an absent field without one is reported as required."""
    if name not in desc:
        if default is MISSING:
            errs.append(f"{path}: required")
        return default
    return read_value(desc[name], path, errs, **kind)


def read_fields(spec_type, desc: dict, errs: list, path: str) -> dict:
    """The constructor arguments of spec_type read from desc."""
    return {f.name: read_field(desc, f.name, errs, f"{path}.{f.name}",
                               f.metadata["default"], **f.metadata["kind"])
            for f in fields(spec_type)}


class Spec:
    """Base of the spec dataclasses: the declared fields are checked as a
    spec is built, and a violation raises `error`, the spec's own type."""

    error = UnsupportedModelError

    def __post_init__(self):
        errs = []
        read_fields(type(self), vars(self), errs, type(self).__name__)
        if errs:
            raise self.error("; ".join(errs))
