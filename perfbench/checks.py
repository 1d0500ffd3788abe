"""Output checks for every workload.

Each check compares belab's rows with a computation made here, apart from
belab, or with a property the method must have; none compares with a stored
copy of earlier rows. A check returns a list of failure messages, empty when
the rows pass.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy import optimize
from scipy.special import ndtr
from scipy.stats import chi2

DKW_ALPHA = 1e-4
TWO_SAMPLE_TAGS = frozenset({"eq2.3", "eq2.4", "eq2.6", "eq3.1"})
FLOAT_COLUMNS = ("z", "epsilon", "p", "bound_known", "bound_c_coeff",
                 "empirical", "dkw_radius", "se")


def read_rows(path: str) -> list:
    """Rows of a belab CSV file, with numbers parsed and empty cells None."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in FLOAT_COLUMNS:
            row[col] = float(row[col]) if row[col] != "" else None
        row["pass"] = {"true": True, "false": False, "": None}[row["pass"]]
    return rows


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# --- every verify workload ---------------------------------------------------


def check_verify(rows: list, replicates: int) -> list:
    """Judged rows pass, and every DKW radius has its closed form."""
    errs = []
    radius = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * replicates))
    judged = 0
    for row in rows:
        label = f"{row['equation_tag']} z={row['z']}"
        if row["empirical"] is None:
            errs.append(f"{label}: no empirical distance")
            continue
        if row["bound_c_coeff"] == 0.0:
            judged += 1
            if row["pass"] is not True:
                errs.append(f"{label}: judged row has pass={row['pass']}")
        elif row["pass"] is not None:
            errs.append(f"{label}: unknown-constant row carries a pass value")
        want = radius * (2.0 if row["equation_tag"] in TWO_SAMPLE_TAGS else 1.0)
        if not _rel_close(row["dkw_radius"], want, 1e-12):
            errs.append(f"{label}: dkw_radius {row['dkw_radius']!r}, "
                        f"closed form {want!r}")
    if judged == 0:
        errs.append("no judged rows")
    return errs


# --- ustat-catalog: exact laws of T and W --------------------------------------
# Under the standard normal at n = 50 the variance kernel gives
# T = 5 (chi2_49 / 49 - 1) and W = (chi2_50 - 50) / 10 exactly.


def cdf_t(x):
    return chi2.cdf(49.0 * (1.0 + np.asarray(x) / 5.0), 49)


def cdf_w(x):
    return chi2.cdf(50.0 + 10.0 * np.asarray(x), 50)


def sup_distance(f, g) -> float:
    """sup_x |f(x) - g(x)| for smooth cdfs: a fine grid, then a local
    bounded maximization around the grid's best point."""
    x = np.linspace(-10.0, 10.0, 40001)
    diff = np.abs(f(x) - g(x))
    k = int(np.argmax(diff))
    step = x[1] - x[0]
    res = optimize.minimize_scalar(
        lambda v: -abs(float(f(v) - g(v))),
        bounds=(x[k] - step, x[k] + step), method="bounded",
        options={"xatol": 1e-12})
    return max(float(diff[k]), -float(res.fun))


def exact_ustat_distance(tag: str, z):
    """The exact distance a ustat-catalog row estimates."""
    if tag in ("eq1.3", "eq2.5", "eq3.2"):
        return sup_distance(cdf_t, ndtr)
    if tag == "eq1.4":
        return sup_distance(cdf_w, ndtr)
    if tag in ("eq2.3", "eq2.4", "eq3.1"):
        return sup_distance(cdf_t, cdf_w)
    if tag == "eq2.6":
        return abs(float(cdf_t(z) - cdf_w(z)))
    return abs(float(cdf_t(z)) - float(ndtr(z)))  # eq2.9, eq3.3/3.4/3.6


def check_ustat_catalog(rows: list) -> list:
    errs = []
    cache = {}
    for row in rows:
        tag, z = row["equation_tag"], row["z"]
        key = (tag, z) if tag in ("eq2.6", "eq2.9", "eq3.3", "eq3.4",
                                  "eq3.6") else tag
        if key not in cache:
            cache[key] = exact_ustat_distance(tag, z)
        exact = cache[key]
        if abs(row["empirical"] - exact) > row["dkw_radius"]:
            errs.append(f"{tag} z={z}: empirical {row['empirical']:.6g} is "
                        f"farther than {row['dkw_radius']:.3g} from the exact "
                        f"{exact:.6g}")
    return errs


# --- lstat-verify: beta from the closed-form influence function ---------------


def lstat_identity_uniform_beta(n: int) -> float:
    """beta = n E|g|^3 for g = -infl(U) / (sqrt(n) sigma), infl(u) =
    1/6 - u^2/2, sigma^2 = 1/45; every |g| <= 1 once n >= 1."""
    f = Polynomial([1.0 / 6.0, 0.0, -0.5])
    cube = f ** 3
    root = 1.0 / math.sqrt(3.0)  # f > 0 below the root, < 0 above
    anti = cube.integ()
    e_abs3 = (anti(root) - anti(0.0)) - (anti(1.0) - anti(root))
    sigma = math.sqrt(1.0 / 45.0)
    return e_abs3 / (math.sqrt(n) * sigma ** 3)


def check_lstat_verify(rows: list, n: int) -> list:
    errs = []
    beta = lstat_identity_uniform_beta(n)
    known = {row["equation_tag"]: row["bound_known"] for row in rows
             if row["z"] is None}
    gap = known["eq2.5"] - known["eq2.4"]
    if not _rel_close(gap, 4.1 * beta, 1e-8):
        errs.append(f"eq2.5 - eq2.4 = {gap!r}, 4.1 beta = {4.1 * beta!r}")
    if not _rel_close(known["eq1.4"], 4.1 * beta, 1e-8):
        errs.append(f"eq1.4 = {known['eq1.4']!r}, 4.1 beta = {4.1 * beta!r}")
    return errs


# --- bound-sweep: scaling in n ---------------------------------------------------


def _constant(values, rtol, label) -> list:
    first = values[0]
    bad = [v for v in values if not _rel_close(v, first, rtol)]
    return [f"{label}: varies, {first!r} vs {bad[0]!r}"] if bad else []


def check_lstat_sweep(rows: list, grid: list) -> list:
    """eq3.10 * sqrt(n) and eq3.11 * n * (1 + |z|)^2 are constant at p = 3."""
    errs = []
    r310 = [r for r in rows if r["equation_tag"] == "eq3.10"]
    r311 = [r for r in rows if r["equation_tag"] == "eq3.11"]
    if [int(r["n"]) for r in r310] != list(grid):
        errs.append("eq3.10 rows do not follow the n grid")
    if any(r["p"] != 3.0 or r["pass"] is not None for r in rows):
        errs.append("sweep rows must carry p = 3 and no pass value")
    errs += _constant([r["bound_known"] * math.sqrt(int(r["n"])) for r in r310],
                      1e-9, "eq3.10 * sqrt(n)")
    errs += _constant([r["bound_known"] * int(r["n"]) * (1.0 + abs(r["z"])) ** 2
                       for r in r311], 1e-9, "eq3.11 * n * (1 + |z|)^2")
    return errs


def check_ustat_sweep(rows: list, grid: list) -> list:
    """Every pair-average bound falls as n grows, and eq3.6 is emitted exactly
    inside |z| <= sqrt((n - 1) / 2)."""
    errs = []
    series = {}
    for r in rows:
        if r["pass"] is not None or r["empirical"] is not None:
            errs.append(f"{r['equation_tag']}: sweep rows are bound-only")
        series.setdefault((r["equation_tag"], r["z"]), []).append(r)
    for (tag, z), items in series.items():
        for a, b in zip(items, items[1:]):
            if int(b["n"]) <= int(a["n"]):
                errs.append(f"{tag} z={z}: rows not in n order")
            for col in ("bound_known", "bound_c_coeff"):
                if b[col] > a[col] * (1.0 + 1e-12):
                    errs.append(f"{tag} z={z}: {col} grows from n={a['n']} "
                                f"to n={b['n']}")
    z_grid = sorted({r["z"] for r in rows if r["z"] is not None})
    for n in grid:
        want = [z for z in z_grid if abs(z) <= math.sqrt((n - 1) / 2.0)]
        got = [r["z"] for r in rows
               if r["equation_tag"] == "eq3.6" and int(r["n"]) == n]
        if got != want:
            errs.append(f"eq3.6 at n={n}: z {got}, expected {want}")
    if {int(r["n"]) for r in rows} != set(grid):
        errs.append("rows do not cover the n grid")
    return errs


def check_workload(name: str, configs: list, rows_by_config: dict) -> list:
    """All checks of one workload; configs as made in workloads.py."""
    errs = []
    for cfg_name, command, cfg in configs:
        rows = rows_by_config[cfg_name]
        where = f"{name}/{cfg_name}"
        if command == "verify":
            found = check_verify(rows, cfg["mc"]["replicates"])
        elif cfg["model"]["family"] == "lstat":
            found = check_lstat_sweep(rows, cfg["sweep"]["grid"])
        else:
            found = check_ustat_sweep(rows, cfg["sweep"]["grid"])
        if name == "ustat-catalog":
            found += check_ustat_catalog(rows)
        elif name == "lstat-verify":
            found += check_lstat_verify(rows, cfg["model"]["n"])
        errs += [f"{where}: {msg}" for msg in found]
    return errs
