"""Experiment-runner CLI: computes bounds, verifies them against sampled
distances, reproduces the perturbed-normal counterexample, and sweeps
parameters, emitting CSV or JSON result rows.

Config is a single JSON document (schema in the README); each CLI flag sets
one of its fields. Every run is fully determined by the config: sampling uses
per-chunk substreams of mc.master_seed and all reductions are order-fixed, so
identical inputs produce byte-identical output files, whatever --threads is.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

from . import app_bounds, bound_core
from .errors import BelabError, ConfigError, DomainError, UnsupportedModelError
from .mc_engine import (
    SeedSpec,
    certify,
    dkw_radius,
    empirical_ks_two_sample,
    empirical_ks_vs_normal,
    pointwise_diff_two_sample,
    pointwise_diff_vs_normal,
    sample_pass,
)
from .models import (
    FAMILIES,
    FAMILY_CATALOG,
    VARIANT_MODES,
    Example41Spec,
    IsqrtModel,
    build_model,
    read_spec,
    with_size,
)
from .models.fields import (
    catalog_names,
    is_number,
    parsed_int,
    read_field,
    read_value,
)
from .models.isqrt import delta_abs_moment, w_delta_abs_moment
from .types import MomentEstimate, p_in_range

RESULT_COLUMNS = ("equation_tag", "model", "n", "m", "z", "epsilon", "p",
                  "bound_known", "bound_c_coeff", "empirical", "dkw_radius",
                  "se", "pass")

SWEEP_AXES = ("n", "z", "epsilon", "replicates")
MIN_VERIFY_REPLICATES = 1000
# t and w of 1e8 replicates take 1.6 GB
MAX_REPLICATES = 10 ** 8
# a run starts up to one thread per chunk, each holding its chunk's buffers;
# 256 exceeds the cores of common hosts, past which threads only add buffers
MAX_THREADS = 256
# example41 samples its cross-check rows at every epsilon from here up
EXAMPLE41_SAMPLED_EPSILON = 1e-2
# each flag sets one config field, (block, field); the field's rule checks
# the flag's text and names a violation after the flag
FLAGS = {"--seed": ("mc", "master_seed"),
         "--replicates": ("mc", "replicates"),
         "--threads": ("mc", "threads"),
         "--output": ("output", "path"),
         "--format": ("output", "format")}


@dataclass(frozen=True)
class ResultRow:
    """One emitted record; column order is RESULT_COLUMNS."""

    equation_tag: str
    model: str
    n: object = None
    m: object = None
    z: float | None = None
    epsilon: float | None = None
    p: float | None = None
    bound_known: float | None = None
    bound_c_coeff: float | None = None
    empirical: float | None = None
    dkw_radius: float | None = None
    se: float | None = None
    pass_flag: bool | None = None

    def __post_init__(self):
        if self.bound_c_coeff is not None and self.bound_c_coeff > 0:
            if self.pass_flag is not None:
                raise ValueError(
                    "rows with an unknown-constant part must carry a null pass")

    def as_mapping(self) -> dict:
        out = {}
        for col in RESULT_COLUMNS:
            out[col] = getattr(self, "pass_flag" if col == "pass" else col)
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    model_desc: dict
    bounds: tuple
    z_grid: tuple
    epsilon_grid: tuple
    p: float
    replicates: int
    master_seed: int
    threads: int
    output_path: str | None
    output_format: str
    sweep_axis: str | None
    sweep_grid: tuple


def _number_list(doc, key, errs, path):
    values = doc.get(key, [])
    if not isinstance(values, list) or not all(map(is_number, values)):
        errs.append(f"{path}: expected a list of finite numbers")
        return []
    return values


def _check_z(z, errs, path):
    """(1 + |z|)^3, the largest power a pointwise bound takes, must be a
    finite float."""
    try:
        (1.0 + abs(z)) ** 3
    except OverflowError:
        errs.append(f"{path}: (1 + |z|)^3 overflows, got {z!r}")


def _check_model(desc: dict, errs: list, path: str = "model"):
    """The spec of a model block, or None with its violations, of its fields
    and then of its spec's domain, appended to errs."""
    try:
        return read_spec(desc, errs, path)
    except BelabError as exc:  # the spec's own checks across fields
        errs.append(f"{path}: {exc}")
        return None


def _check_verify_replicates(replicates, errs, path):
    if replicates < MIN_VERIFY_REPLICATES:
        errs.append(f"{path}: verification needs >= {MIN_VERIFY_REPLICATES}, "
                    f"got {replicates}")


def _check_sweep_grid(axis, grid, desc, errs):
    """Check each grid value against the axis it sets: integer sizes, a
    buildable model at each n, replicate counts that a verify run takes,
    and epsilons inside the domain of the closed-form lower bound. An
    empty desc skips the model check."""
    for k, value in enumerate(grid):
        path = f"sweep.grid[{k}]"
        if axis == "n":
            value = read_value(value, path, errs, integer=True)
        elif axis == "replicates":
            value = read_value(value, path, errs, integer=True,
                               minimum=1, maximum=MAX_REPLICATES)
        if value is None:
            continue
        if axis == "z":
            _check_z(value, errs, path)
        elif axis == "replicates":
            _check_verify_replicates(value, errs, path)
        elif axis == "n" and desc:
            _check_model(with_size(desc, value), errs, f"{path}: model")
        elif axis == "epsilon":
            try:
                app_bounds.ks_lower_bound(float(value))
            except DomainError as exc:
                errs.append(f"{path}: {exc}")


def _block(doc, key, errs, flags, parse=str):
    """doc[key] as an object, with each given flag's text, read by `parse`,
    in the field it sets, and the path that names a field's violations:
    its flag, if any."""
    block = doc.get(key, {})
    if not isinstance(block, dict):
        errs.append(f"{key}: expected an object")
        block = {}
    names = {FLAGS[f][1]: f for f, value in (flags or {}).items()
             if value is not None and FLAGS[f][0] == key}
    block = {**block, **{field: parse(flags[f]) for field, f in names.items()}}
    return block, lambda field: names.get(field, f"{key}.{field}")


def parse_config(text: str, flags=None, command=None) -> ExperimentConfig:
    """Validate the JSON config, with each flag in `flags` (FLAGS name to
    value, None where absent) set in its field, collecting every violation
    before failing. Given a command, each requirement it has of a field
    without a violation of its own joins the list."""
    errs = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level: must be a JSON object"])

    desc = doc.get("model")
    if desc is None:
        desc = {}  # only example41 runs may omit the model block
    elif not isinstance(desc, dict):
        errs.append("model: expected an object")
        desc = {}
    desc = dict(desc)
    if "kind" in desc and "family" not in desc:
        desc["family"] = desc.pop("kind")
    model_spec = _check_model(desc, errs) if desc else None
    model_ok = not errs
    family = desc.get("family")

    bounds = doc.get("bounds", [])
    if not isinstance(bounds, list):
        errs.append("bounds: expected a list of equation tags")
        bounds = []
    specs = {t: TAGS[t] for t in bounds if isinstance(t, str) and t in TAGS}
    for tag in bounds:
        if not (isinstance(tag, str) and tag in specs):
            errs.append(f"bounds: unknown tag {tag!r}; "
                        f"catalog: {catalog_names(TAGS)}")
        elif family in FAMILIES and family not in specs[tag].families:
            valid = (t for t, spec in TAGS.items() if family in spec.families)
            errs.append(f"bounds: {tag} does not apply to a {family} model; "
                        f"valid: {catalog_names(valid)}")

    z_grid = _number_list(doc, "z_grid", errs, "z_grid")
    for k, z in enumerate(z_grid):
        _check_z(z, errs, f"z_grid[{k}]")
    point_tags = {t for t, spec in specs.items() if spec.point}
    if point_tags and not z_grid:
        errs.append("z_grid: required by the selected point bounds "
                    + catalog_names(point_tags))

    eps_grid = _number_list(doc, "epsilon_grid", errs, "epsilon_grid")

    p = read_field(doc, "p", errs, "p", default=3.0)
    if p is not None and not p_in_range(p):
        errs.append(f"p: moment order must lie in (2, 3], got {p!r}")

    # the mc fields are integers; a flag's text that is none stays text,
    # for the field's rule to name
    mc, mc_name = _block(doc, "mc", errs, flags, parse=parsed_int)
    if "master_seed" not in mc:
        errs.append("mc.master_seed: required (determinism contract; "
                    "no wall-clock default)")
    seed = read_field(mc, "master_seed", errs, mc_name("master_seed"),
                      default=None, integer=True, minimum=0)
    if seed is not None and seed >= 2 ** 63:
        errs.append(f"{mc_name('master_seed')}: must be below 2^63")
    replicates = read_field(mc, "replicates", errs, mc_name("replicates"),
                            default=10000, integer=True, minimum=1,
                            maximum=MAX_REPLICATES)
    threads = read_field(mc, "threads", errs, mc_name("threads"), default=1,
                         integer=True, minimum=1, maximum=MAX_THREADS)

    out, name = _block(doc, "output", errs, flags)
    path = out.get("path")
    if path is not None and not isinstance(path, str):
        errs.append(f"{name('path')}: expected a string")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        errs.append(f"{name('format')}: expected csv or json, got {fmt!r}")

    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        errs.append("sweep: expected an object with axis and grid")
        sweep = {}
    axis = sweep.get("axis")
    if axis is not None and axis not in SWEEP_AXES:
        errs.append(f"sweep.axis: expected one of "
                    f"{catalog_names(SWEEP_AXES)}, got {axis!r}")
        axis = None
    if axis == "epsilon" and model_ok and not hasattr(model_spec, "epsilon"):
        errs.append("sweep.axis: epsilon sweeps need an isqrt model")
    before = len(errs)
    grid = _number_list(sweep, "grid", errs, "sweep.grid")
    if axis is not None and not grid and len(errs) == before:
        errs.append("sweep.grid: required")
    _check_sweep_grid(axis, grid, desc if model_ok else {}, errs)

    cfg = ExperimentConfig(
        model_desc=desc, bounds=tuple(bounds), z_grid=tuple(z_grid),
        epsilon_grid=tuple(eps_grid), p=p if p is None else float(p),
        replicates=replicates, master_seed=seed, threads=threads,
        output_path=path, output_format=fmt, sweep_axis=axis,
        sweep_grid=tuple(grid))
    try:  # a command of None has no requirements
        _check_command(cfg, command, mc_name("replicates"))
    except ConfigError as exc:
        named = {v.split(": ", 1)[0] for v in errs}
        errs += [v for v in exc.violations if v.split(": ", 1)[0] not in named]
    if errs:
        raise ConfigError(errs)
    return cfg


class _Runner:
    """Shared bound/verify machinery for one config; `verify` runs also
    measure distances, so their sampling pass keeps T and W."""

    def __init__(self, cfg: ExperimentConfig, verify: bool):
        self.cfg = cfg
        self.verify = verify
        self.model = build_model(cfg.model_desc)
        self.seed = SeedSpec(cfg.master_seed)
        self.linear = self.model.linear_part
        self.third_terms = self._third_terms()
        self._distances = {}

    def _third_terms(self) -> dict:
        """sum_i P(|W - g_i| > (|z|-2)/3) P(|g_i| > 1) at each z of eq2.6,
        evaluated before anything is sampled, so a model without the
        W - g_i tail oracle that a z needs fails as a config error."""
        if "eq2.6" not in self.cfg.bounds:
            return {}
        terms, errs = {}, []
        for k, z in enumerate(self.cfg.z_grid):
            try:
                terms[z] = self.model.nonuniform_third_term(z)
            except UnsupportedModelError as exc:
                errs.append(f"z_grid[{k}]: eq2.6 at z = {z!r}: {exc}")
        if errs:
            raise ConfigError(errs)
        return terms

    # --- cached ingredients -------------------------------------------------

    @cached_property
    def beta(self) -> MomentEstimate:
        return bound_core.compute_beta(self.linear)

    @cached_property
    def delta_min(self) -> float:
        return bound_core.solve_delta_minimal(self.linear)

    @cached_property
    def sampled(self):
        """The run's one sampling pass: (t, w, {mode: BoundComponents})
        with every variant mode the tags read, and with T and W only on a
        verify run. T and W are sorted in place once: only the distance
        kernels read them, none of them depends on the order, and each
        reads an ascending input without sorting a copy."""
        wanted = {TAGS[tag].mode for tag in self.cfg.bounds}
        thresholds = tuple(sorted({_tail_level(z) for z in self.cfg.z_grid}))
        t, w, comps = sample_pass(
            self.model, self.cfg.replicates, self.seed,
            modes=tuple(m for m in VARIANT_MODES if m in wanted),
            threads=self.cfg.threads, delta_thresholds=thresholds,
            keep_tw=self.verify)
        if self.verify:
            t.sort()
            w.sort()
        return t, w, comps

    def distance(self, comparator: str, z=None):
        """Measured distance for a comparator, uniform (z None) or at z;
        each (comparator, z) is computed once per run."""
        key = (comparator, z)
        if key not in self._distances:
            t, w, _comps = self.sampled
            if comparator == "T~W":
                ks = (empirical_ks_two_sample(t, w) if z is None
                      else pointwise_diff_two_sample(t, w, z))
            else:
                x = t if comparator == "T~N" else w
                ks = (empirical_ks_vs_normal(x) if z is None
                      else pointwise_diff_vs_normal(x, z))
            self._distances[key] = ks
        return self._distances[key]

    def linear_ks(self) -> float:
        exact = self.model.linear_ks_exact()
        if exact is not None:
            return float(exact)
        return bound_core.linear_baseline(self.linear).known

    @cached_property
    def bound_inputs(self):
        """The model family's bound inputs, computed when a tag reads them."""
        return self.model.bound_inputs(self.cfg.p)

    # --- rows ---------------------------------------------------------------

    def run(self):
        """One row per tag, or per tag and z for the point bounds."""
        meta = self.model.row_meta()
        rows = []
        for tag in self.cfg.bounds:
            spec = TAGS[tag]
            comps = self.sampled[2][spec.mode] if spec.mode else None
            for z in self.cfg.z_grid if spec.point else (None,):
                bound = spec.build(self, comps, z)
                if bound is None:
                    continue
                kw = dict(meta, equation_tag=tag, z=z,
                          p=self.cfg.p if spec.with_p else None,
                          bound_known=bound.known,
                          bound_c_coeff=bound.c_coeff, se=bound.known_se)
                if self.verify:
                    ks = self.distance(spec.comparator, z)
                    kw.update(empirical=ks.distance, dkw_radius=ks.dkw_radius,
                              pass_flag=certify(ks, bound))
                rows.append(ResultRow(**kw))
        return rows


# --- equation-tag registry ---------------------------------------------------


@dataclass(frozen=True)
class TagSpec:
    """How one equation tag is bounded and what its bound is checked against.

    build(runner, comps, z) returns the BoundValue, or None where no bound is
    stated at z; comps are the coupling-moment estimates in `mode` (None: the
    bound reads no sampled components). comparator names the measured
    distance: T or W against the normal, or T against W, uniformly or at each
    z for point bounds. with_p rows carry p.
    """

    families: frozenset
    point: bool
    mode: str | None
    comparator: str
    with_p: bool
    build: object


def _tail_level(z):
    """(|z| + 1)/3, the level of the Delta and g_i tails at the point z."""
    return (abs(z) + 1.0) / 3.0


def _nonuniform_22(r: _Runner, comps, z):
    thr = _tail_level(z)
    gamma = (comps.delta_tails[thr] + r.linear.sum_prob_above(thr)
             + r.third_terms[z])
    tau = bound_core.nonuniform_tau(
        comps.as_bound_components(r.beta, r.delta_min))
    return bound_core.nonuniform_bound_thm22(gamma, tau, z)


def _nonuniform_29(r: _Runner, comps, z):
    sum_p, _sum_p_se = r.linear.sum_abs_p(r.cfg.p)
    return bound_core.nonuniform_moment_bound(
        r.cfg.p, z, comps.delta_tails[_tail_level(z)],
        comps.delta_l2.value, comps.sum_g_l2_delta_l2.value, sum_p)


def _ustat_36(r: _Runner, comps, z):
    inp = r.bound_inputs
    try:
        return app_bounds.ustat_nonuniform_36(inp, z)
    except DomainError:
        return None  # only stated inside the moderate-z range


_ALL = frozenset(FAMILIES)
# the tau/L2 forms need a second moment of the remainder
_WITH_L2 = frozenset(f for f, (_spec, model) in FAMILY_CATALOG.items()
                     if model.supports_delta_l2)
_USTAT = frozenset({"ustat"})
_MULTI = frozenset({"multisample"})
_LSTAT = frozenset({"lstat"})

TAGS = {
    "eq1.3": TagSpec(_ALL, False, "zero_out", "T~N", False,
                     lambda r, c, z: bound_core.chebyshev_baseline(
                         r.linear_ks(), c.delta_abs.value, 1.0)),
    "eq1.4": TagSpec(_ALL, False, None, "W~N", False,
                     lambda r, c, z: bound_core.linear_baseline(r.linear)),
    "eq2.3": TagSpec(_ALL, False, "zero_out", "T~W", False,
                     lambda r, c, z: bound_core.uniform_bound_thm21(
                         c.as_bound_components(r.beta, r.delta_min))),
    "eq2.4": TagSpec(_ALL, False, "zero_out", "T~W", False,
                     lambda r, c, z: bound_core.uniform_bound_beta(
                         c.as_bound_components(r.beta, r.delta_min))),
    "eq2.5": TagSpec(_ALL, False, "zero_out", "T~N", False,
                     lambda r, c, z: bound_core.uniform_bound_normal(
                         c.as_bound_components(r.beta, r.delta_min))),
    "eq2.6": TagSpec(_WITH_L2, True, "resample", "T~W", False,
                     _nonuniform_22),
    "eq2.9": TagSpec(_WITH_L2, True, "resample", "T~N", True,
                     _nonuniform_29),
    "eq3.1": TagSpec(_USTAT, False, None, "T~W", False,
                     lambda r, c, z: app_bounds.ustat_uniform_31(
                         r.bound_inputs)),
    "eq3.2": TagSpec(_USTAT, False, None, "T~N", True,
                     lambda r, c, z: app_bounds.ustat_normal_32(
                         r.bound_inputs)),
    "eq3.3": TagSpec(_USTAT, True, None, "T~N", True,
                     lambda r, c, z: app_bounds.ustat_nonuniform_33(
                         r.bound_inputs, z)),
    "eq3.4": TagSpec(_USTAT, True, None, "T~N", True,
                     lambda r, c, z: app_bounds.ustat_nonuniform_34(
                         r.bound_inputs, z)),
    "eq3.6": TagSpec(_USTAT, True, None, "T~N", True, _ustat_36),
    "eq3.7": TagSpec(_MULTI, False, None, "T~N", True,
                     lambda r, c, z: app_bounds.multisample_37(
                         r.bound_inputs)),
    "eq3.8": TagSpec(_MULTI, True, None, "T~N", True,
                     lambda r, c, z: app_bounds.multisample_38(
                         r.bound_inputs, z)),
    "eq3.10": TagSpec(_LSTAT, False, None, "T~N", True,
                      lambda r, c, z: app_bounds.lstat_310(r.bound_inputs)),
    "eq3.11": TagSpec(_LSTAT, True, None, "T~N", True,
                      lambda r, c, z: app_bounds.lstat_311(
                          r.bound_inputs, z)),
}


# --- commands ----------------------------------------------------------------
# Each returns (rows, notes); notes are always empty.


def _example41_epsilons(cfg):
    """example41's epsilon grid and the field it comes from: epsilon_grid,
    or else the epsilon of an isqrt model block."""
    eps = cfg.model_desc.get("epsilon")
    if cfg.epsilon_grid or not is_number(eps):
        return cfg.epsilon_grid, "epsilon_grid"
    return (eps,), "model.epsilon"


def _check_command(cfg, command, replicates_path="mc.replicates"):
    """Raise a ConfigError that lists each requirement of `command` that
    cfg misses: a model block and a bound tag for bound, verify and each
    sweep that runs them, an axis for a sweep, an epsilon grid inside the
    report's domain for example41, and the replicate floor for verify and
    for example41's sampled rows."""
    errs = []
    if command == "sweep":
        if cfg.sweep_axis not in SWEEP_AXES:
            errs.append(f"sweep.axis: expected one of "
                        f"{catalog_names(SWEEP_AXES)}, got {cfg.sweep_axis!r}")
        elif cfg.sweep_axis != "epsilon":
            # parse_config holds each value of a replicates sweep to the floor
            command = "bound"
    if command in ("bound", "verify"):
        if not cfg.model_desc:
            errs.append("model: required object")
        if not cfg.bounds:
            errs.append("bounds: at least one equation tag is required")
    floor = command == "verify"
    if command == "example41":
        grid, path = _example41_epsilons(cfg)
        if not grid:
            errs.append("epsilon_grid: required for example41")
        for eps in grid:
            try:
                app_bounds.check_counterexample_epsilon(float(eps))
            except DomainError as exc:
                errs.append(f"{path}: {exc}")
        floor = any(eps >= EXAMPLE41_SAMPLED_EPSILON for eps in grid)
    if floor and cfg.replicates is not None:
        _check_verify_replicates(cfg.replicates, errs, replicates_path)
    if errs:
        raise ConfigError(errs)


def cmd_bound(cfg: ExperimentConfig):
    _check_command(cfg, "bound")
    return _Runner(cfg, verify=False).run(), []


def cmd_verify(cfg: ExperimentConfig):
    _check_command(cfg, "verify")
    return _Runner(cfg, verify=True).run(), []


def cmd_example41(cfg: ExperimentConfig):
    """Counterexample table plus MC cross-checks at the coarse epsilons."""
    _check_command(cfg, "example41")
    rows = []
    quad_ratio = w_delta_abs_moment() + delta_abs_moment(1.0)
    for rep in app_bounds.counterexample_report(_example41_epsilons(cfg)[0]):
        eps = rep.epsilon
        n = int(round(eps ** -4.0))
        model = IsqrtModel(Example41Spec(eps, n))
        rows.append(ResultRow(
            equation_tag="eq4.2", model=model.name, n=n, epsilon=eps,
            bound_known=rep.lhs_floor, empirical=rep.lhs_exact,
            se=0.0, pass_flag=bool(rep.lhs_exact >= rep.lhs_floor)))
        quad43 = quad_ratio * eps
        rows.append(ResultRow(
            equation_tag="eq4.3", model=model.name, n=n, epsilon=eps,
            bound_known=7.0 * eps, empirical=quad43, se=0.0,
            pass_flag=bool(quad43 <= 7.0 * eps)))
        if eps >= EXAMPLE41_SAMPLED_EPSILON:
            lhs, mc43 = app_bounds.counterexample_check(
                model, cfg.replicates, SeedSpec(cfg.master_seed), cfg.threads)
            rows.append(ResultRow(
                equation_tag="eq4.2", model=model.name, n=n, epsilon=eps,
                bound_known=rep.lhs_exact, empirical=lhs.value,
                dkw_radius=dkw_radius(lhs.replicates), se=lhs.std_error,
                pass_flag=bool(abs(lhs.value - rep.lhs_exact)
                               <= 4.0 * lhs.std_error)))
            ok = (mc43.value <= 7.0 * eps
                  and abs(mc43.value - quad43) <= 4.0 * mc43.std_error)
            rows.append(ResultRow(
                equation_tag="eq4.3", model=model.name, n=n, epsilon=eps,
                bound_known=7.0 * eps, empirical=mc43.value,
                se=mc43.std_error, pass_flag=bool(ok)))
        rows.append(ResultRow(
            equation_tag="eq4.6", model=model.name, n=n, epsilon=eps,
            bound_known=rep.shorack_rhs, empirical=rep.lhs_exact, se=0.0,
            bound_c_coeff=0.0, pass_flag=None))
        rows.append(ResultRow(
            equation_tag="eq4.7", model=model.name, n=n, epsilon=eps,
            bound_known=rep.bg_bracket, empirical=rep.lhs_exact, se=0.0,
            bound_c_coeff=1.0, pass_flag=None))
    return rows, []


def cmd_sweep(cfg: ExperimentConfig):
    _check_command(cfg, "sweep")
    axis = cfg.sweep_axis
    rows = []
    if axis == "z":
        sub = replace(cfg, z_grid=tuple(float(v) for v in cfg.sweep_grid))
        try:
            return cmd_bound(sub)
        except ConfigError as exc:
            # the z values, and so the indexes, are the sweep grid's
            raise ConfigError([v.replace("z_grid[", "sweep.grid[", 1)
                               for v in exc.violations]) from exc
    if axis == "n":
        for nval in cfg.sweep_grid:
            desc = with_size(cfg.model_desc, int(nval))
            rows.extend(cmd_bound(replace(cfg, model_desc=desc))[0])
        return rows, []
    if axis == "replicates":
        for rval in cfg.sweep_grid:
            rows.extend(cmd_verify(replace(cfg, replicates=int(rval)))[0])
        return rows, []
    # epsilon axis: closed-form lower-bound curve of the perturbed-normal model
    for eps in cfg.sweep_grid:
        eps = float(eps)
        lhs = app_bounds.ks_lower_bound(eps)
        floor = eps ** (2.0 / 3.0) / 6.0
        rows.append(ResultRow(
            equation_tag="eq4.2", model=f"isqrt-eps{eps:g}", epsilon=eps,
            bound_known=floor, empirical=lhs, se=0.0,
            pass_flag=bool(lhs >= floor)))
    return rows, []


# --- emission ----------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_rows(rows, fmt: str) -> str:
    if not rows:
        raise ConfigError(["no result rows to emit"])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            m = row.as_mapping()
            writer.writerow([_csv_cell(m[c]) for c in RESULT_COLUMNS])
        return buf.getvalue()
    return json.dumps([row.as_mapping() for row in rows], indent=2,
                      allow_nan=False) + "\n"


def emit_results(rows, fmt: str, path: str | None) -> str:
    """Render and write rows; returns the rendered text.

    A file is written whole or not at all: the text goes to a temporary
    file beside the target, which then replaces it. On failure the
    temporary file is removed and a previous file stays as it was."""
    text = render_rows(rows, fmt)
    if path:
        out_dir = os.environ.get("BELAB_OUTPUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        head, tail = os.path.split(path)
        tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belab",
        description="Berry-Esseen bound computation and verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("bound", "compute bound values only"),
            ("verify", "compute bounds and certify sampled distances"),
            ("example41", "reproduce the perturbed-normal counterexample"),
            ("sweep", "evaluate bounds over a parameter grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        for flag, (block, field) in FLAGS.items():
            p.add_argument(flag, help=f"set {block}.{field}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, {f: getattr(args, f[2:]) for f in FLAGS},
                           args.command)
        # looked up when called, so a command patched on the module runs
        rows, _notes = globals()[f"cmd_{args.command}"](cfg)
        emit_results(rows, cfg.output_format, cfg.output_path)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config: {line}", file=sys.stderr)
        return 2
    except (BelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    if any(row.pass_flag is False for row in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
