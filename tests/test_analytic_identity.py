"""Frozen `float.hex` values of the analytic tier: every value a bound
takes from a model without sampling stays bit-identical.

For every catalog family, each law it accepts and a few sizes, the
ingredients of the bounds are recomputed: beta, both delta roots, the
power and tail sums of the linear part, each group marginal's truncated
moment and tail, the exact KS distance of W and the tail of W - g_i where a
model has them, and the family's bound inputs at each p in P_GRID; beside
them the L-statistic scales and the perturbed-normal model's closed forms
at a few arguments. Each value is stored as its own `float.hex` under
`<descriptor>/<ingredient>`, so a failure names the values that moved. The
values live in `analytic_identity.json`; rewrite it only for a change that
is meant to alter an analytic value, and audit the diff:

    PYTHONPATH=src python tests/test_analytic_identity.py --write
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from belab import marginals
from belab.app_bounds import alpha_scale, coupling_gini, ks_lower_bound
from belab.bound_core import (
    compute_beta,
    delta_from_truncation,
    solve_delta_minimal,
)
from belab.errors import DegenerateModelError, UnsupportedModelError
from belab.models import (
    DIST_CATALOG,
    KERNEL_CATALOG,
    WEIGHT_CATALOG,
    build_model,
)
from belab.models.lstat import catalog_scale

VALUES = Path(__file__).resolve().parent / "analytic_identity.json"
SIZES = (4, 50, 400)
RANK_SIZES = ("2;2", "3;7", "40;30", "57;13", "200;200", "1000;1000",
              "2;2000")
P_GRID = (2.5, 3.0)
# (|z| - 2) / 3, the eq2.6 threshold, at z = 2.5 and z = 4
TAIL_T = (1.0 / 6.0, 2.0 / 3.0)
BELOW_T = (0.1, 1.0)


def _descriptors():
    """{name: model descriptor} over families, laws and sizes; a law the
    family does not accept is left out."""
    descs = {}
    for dist in DIST_CATALOG:
        for n in SIZES:
            descs[f"linear-{dist}-n{n}"] = {
                "family": "linear", "dist": dist, "n": n}
            for kernel in KERNEL_CATALOG:
                descs[f"ustat-{kernel}-{dist}-n{n}"] = {
                    "family": "ustat", "kernel": kernel, "dist": dist, "n": n}
            for weight in WEIGHT_CATALOG:
                descs[f"lstat-{weight}-{dist}-n{n}"] = {
                    "family": "lstat", "weight": weight, "dist": dist, "n": n}
        for n in RANK_SIZES:
            descs[f"multisample-{dist}-n{n}"] = {
                "family": "multisample", "dist": dist, "n": n}
    for n in SIZES:
        descs[f"isqrt-eps0.01-n{n}"] = {"family": "isqrt", "epsilon": 0.01,
                                        "n": n}
    models = {}
    for name, desc in descs.items():
        try:
            build_model(desc)
        except (DegenerateModelError, UnsupportedModelError):
            continue
        models[name] = desc
    return models


DESCRIPTORS = _descriptors()


def model_values(name: str) -> dict:
    """{`<name>/<ingredient>`: float.hex} of one descriptor's model."""
    model = build_model(DESCRIPTORS[name])
    lp = model.linear_part
    got = {
        "beta": compute_beta(lp).value,
        "delta_minimal": solve_delta_minimal(lp),
        "delta_truncation": delta_from_truncation(lp),
        "sum_prob_above(1/3)": lp.sum_prob_above(1.0 / 3.0),
    }
    for p in P_GRID:
        got[f"sum_abs_p({p})"] = lp.sum_abs_p(p)[0]
    for k, (marg, _size) in enumerate(lp.groups):
        got[f"group{k}/prob_abs_above(1)"] = marg.prob_abs_above(1.0)
        for t in BELOW_T:
            got[f"group{k}/e_abs_p_below(3.0, {t})"] = marg.e_abs_p_below(
                3.0, t)
        for t in TAIL_T:
            tail = model.prob_abs_w_minus_g_above(k, t)
            if tail is not None:
                got[f"group{k}/prob_abs_w_minus_g_above({t:.4f})"] = tail
    ks = model.linear_ks_exact()
    if ks is not None:
        got["linear_ks_exact"] = ks
    if hasattr(model, "bound_inputs"):
        for p in P_GRID:
            inputs = model.bound_inputs(p)
            for field in dataclasses.fields(inputs):
                value = getattr(inputs, field.name)
                if isinstance(value, float):
                    got[f"bound_inputs({p}).{field.name}"] = value
                elif isinstance(value, tuple):
                    for j, v in enumerate(value):
                        got[f"bound_inputs({p}).{field.name}[{j}]"] = v
    return {f"{name}/{key}": float(v).hex() for key, v in got.items()}


def shared_values() -> dict:
    """{key: float.hex} of the values that belong to no one descriptor."""
    got = {}
    for weight in WEIGHT_CATALOG:
        for dist in DIST_CATALOG:
            if not DIST_CATALOG[dist].continuous:
                continue
            _infl, sigma, center = catalog_scale(weight, dist)
            got[f"lstat-scale-{weight}-{dist}/sigma"] = sigma
            got[f"lstat-scale-{weight}-{dist}/t_center"] = center
    for r in (0.0, 0.5, 3.0):
        got[f"coupling_gini({r})"] = coupling_gini(r)
    for nu in (0.5, 0.05, 1e-5):
        got[f"alpha_scale({nu})"] = alpha_scale(nu)
    for eps in (1e-2, 1e-3, 1e-30):
        got[f"ks_lower_bound({eps})"] = ks_lower_bound(eps)
    return {key: float(v).hex() for key, v in got.items()}


def all_values() -> dict:
    table = shared_values()
    for name in sorted(DESCRIPTORS):
        table.update(model_values(name))
    return table


def moved(frozen: dict, got: dict) -> list:
    return sorted(key for key, value in got.items()
                  if frozen.get(key) != value)


@pytest.fixture(scope="module")
def frozen():
    return json.loads(VALUES.read_text())


def test_cases_cover_every_family(frozen):
    assert {d["family"] for d in DESCRIPTORS.values()} == {
        "linear", "ustat", "multisample", "lstat", "isqrt"}
    assert set(frozen) == set(all_values())


def test_shared_values_frozen(frozen):
    changed = moved(frozen, shared_values())
    assert not changed, f"analytic values changed: {changed}"


@pytest.mark.parametrize("name", sorted(DESCRIPTORS))
def test_model_values_frozen(frozen, name):
    changed = moved(frozen, model_values(name))
    assert not changed, f"analytic values changed: {changed}"


def test_one_ulp_names_the_value(frozen, monkeypatch):
    """A marginal's E|g|^p one ulp off fails the check and names that
    ingredient."""
    e_abs_p = marginals.UniformMarginal.e_abs_p
    monkeypatch.setattr(marginals.UniformMarginal, "e_abs_p",
                        lambda self, p: math.nextafter(e_abs_p(self, p),
                                                       math.inf))
    changed = moved(frozen, model_values("linear-uniform01-n50"))
    assert "linear-uniform01-n50/sum_abs_p(3.0)" in changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_analytic_identity.py --write")
    VALUES.write_text(json.dumps(all_values(), indent=1, sort_keys=True)
                      + "\n")
