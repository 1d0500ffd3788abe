"""The benchmark's workloads: the configs each one runs, made from the seed.

A workload is a list of ``(name, command, config)`` triples; one workload
execution runs every config once through ``belab.cli``. The seed goes into
``mc.master_seed`` of every config, and nothing else in a config depends on
it, so all seeds cost the same work. ``smoke`` selects tiny sizes that run
every workload and every check in a few seconds.
"""
from __future__ import annotations

SHORT_Z = [0.0, 1.0]
CATALOG_Z = [-2.0, -1.0, 0.0, 1.0, 2.0]
USTAT_TAGS = ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6", "eq2.9",
              "eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"]


def _grid(lo: int, hi: int, points: int) -> list:
    """`points` integers spread evenly from lo to hi inclusive."""
    return [lo + (hi - lo) * k // (points - 1) for k in range(points)]


def rank_verify(seed: int, smoke: bool):
    size = 200 if smoke else 1000
    return [("rank", "verify", {
        "model": {"family": "multisample", "kernel": "wilcoxon",
                  "dist": "uniform01", "n": f"{size};{size}"},
        "bounds": ["eq3.7", "eq2.3", "eq2.5", "eq2.6"],
        "z_grid": SHORT_Z,
        "mc": {"master_seed": seed, "replicates": 2048 if smoke else 8192},
    })]


def lstat_verify(seed: int, smoke: bool):
    return [("lstat", "verify", {
        "model": {"family": "lstat", "weight": "identity",
                  "dist": "uniform01", "n": 400},
        "bounds": ["eq1.3", "eq1.4", "eq2.3", "eq2.4", "eq2.5", "eq2.6",
                   "eq3.10"],
        "z_grid": SHORT_Z,
        "mc": {"master_seed": seed, "replicates": 4096 if smoke else 50000},
    })]


def ustat_catalog(seed: int, smoke: bool):
    return [("ustat", "verify", {
        "model": {"family": "ustat", "kernel": "variance",
                  "dist": "std_normal", "n": 50},
        "bounds": USTAT_TAGS,
        "z_grid": CATALOG_Z,
        "mc": {"master_seed": seed,
               "replicates": 20000 if smoke else 500000},
    })]


def bound_sweep(seed: int, smoke: bool):
    points = 4 if smoke else 24
    return [
        ("lstat-n", "sweep", {
            "model": {"family": "lstat", "weight": "identity",
                      "dist": "std_normal", "n": 40},
            "bounds": ["eq3.10", "eq3.11"],
            "z_grid": [0.0, 1.0, 2.0],
            "p": 3.0,
            "sweep": {"axis": "n", "grid": _grid(40, 2000, points)},
            "mc": {"master_seed": seed},
        }),
        ("ustat-n", "sweep", {
            "model": {"family": "ustat", "kernel": "variance",
                      "dist": "exponential1", "n": 20},
            "bounds": ["eq3.1", "eq3.2", "eq3.3", "eq3.4", "eq3.6"],
            "z_grid": [0.0, 1.0, 2.0, 4.0],
            "p": 3.0,
            "sweep": {"axis": "n", "grid": _grid(20, 1400, points)},
            "mc": {"master_seed": seed},
        }),
    ]


WORKLOADS = {
    "rank-verify": rank_verify,
    "lstat-verify": lstat_verify,
    "ustat-catalog": ustat_catalog,
    "bound-sweep": bound_sweep,
}
