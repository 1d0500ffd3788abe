"""belab benchmark: times the verify, catalog and bound-sweep paths end to end
and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload rank-verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Run it from anywhere inside a checkout; it imports belab from the checkout's
``src``. Each measurement runs in a fresh child process (perfbench/worker.py)
with the BLAS thread count fixed at 1. With ``--trace 0`` the run reports the
end-to-end metrics: set-up time (median of several fresh processes), the
median wall time at one thread after an untimed warm-up iteration, and peak
RSS at one thread and at ``nproc`` threads. With ``--trace 1`` a
single-thread process alternates untraced and traced iterations and reports
the per-layer metrics. Every command's rows are checked (perfbench/checks.py)
and must be byte-identical across iterations and thread counts. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_workload, read_rows
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60
# one BLAS thread, so mc.threads is the only parallelism; a fixed hash seed
# removes one source of variation between processes
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
                    "peak_rss_mb.par": "MiB"}


class BenchError(Exception):
    """A child failed or the checkout cannot be benchmarked."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(mode: str, path: Path) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, str(path)], env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child timed out after {exc.timeout} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(config_path: Path) -> float:
    """Seconds from spawning a fresh interpreter until it reports that belab
    is imported, the config parsed and the first model with its beta built."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "setup", str(config_path)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    # readline has no timeout: a hung child is killed, which ends the line
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _out, err = proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"setup child exited with {proc.returncode}")
    return elapsed


def fresh_folder(name: str) -> None:
    """Empty the workload's output folder, so no file outlives its run."""
    shutil.rmtree(OUT / name, ignore_errors=True)
    (OUT / name).mkdir(parents=True)


def write_job(name, configs, threads, budget_s, min_iterations) -> Path:
    """Config files and the job file for one workload at one thread count."""
    folder = OUT / name
    items = []
    for cfg_name, command, cfg in configs:
        stem = folder / f"{cfg_name}-t{threads}"
        doc = dict(cfg, mc=dict(cfg["mc"], threads=threads),
                   output={"path": str(stem) + ".csv", "format": "csv"})
        stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
        items.append({"name": cfg_name, "command": command,
                      "path": str(stem) + ".json",
                      "rows": str(stem) + ".csv"})
    job = folder / f"job-t{threads}.json"
    job.write_text(json.dumps({
        "configs": items, "budget_s": budget_s,
        "min_iterations": min_iterations,
        "spans_path": str(folder / "spans.json")}, indent=1) + "\n")
    return job


def check_output(name, configs, job_path, results) -> list:
    """Every iteration of every child emitted the same bytes, the files on
    disk hold the last rows emitted, and those rows pass the workload's
    checks. Returns the failures."""
    job = json.loads(job_path.read_text())
    errs = []
    reference = results[0]["hashes"][-1]
    if any(hashes != reference for res in results for hashes in res["hashes"]):
        errs.append(f"{name}: rows differ between iterations or thread counts")
    for item in job["configs"]:
        data = Path(item["rows"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != reference.get(item["name"]):
            errs.append(f"{name}: {item['rows']} is not the last rows emitted")
    rows = {item["name"]: read_rows(item["rows"]) for item in job["configs"]}
    return errs + check_workload(name, configs, rows)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    configs = WORKLOADS[name](seed, smoke)
    fresh_folder(name)
    par = nproc()
    min_iter = 1 if smoke else 2
    # the threads=nproc child only needs one execution after its warm-up for
    # peak_rss_mb.par; its wall time swings too much on a shared host to gate
    jobs = {t: write_job(name, configs, t, seconds if t == 1 else 0.0,
                         min_iter if t == 1 else 1)
            for t in sorted({1, par})}
    results = {t: run_child("time", job) for t, job in jobs.items()}
    # after the timing children, so every probe finds the files cached
    first_config = OUT / name / f"{configs[0][0]}-t1.json"
    setup = [time_setup(first_config)
             for _ in range(1 if smoke else SETUP_PROBES)]
    errs = check_output(name, configs, jobs[1], list(results.values()))
    one, many = results[1], results[par]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(one["times_s"]),
        "peak_rss_mb": one["peak_rss_mib"],
        "peak_rss_mb.par": many["peak_rss_mib"],
    }
    return {
        "errors": errs,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                    for k, v in metrics.items()},
        "notes": [f"threads={t}: warm-up {r['warmup_s']:.3f} s, timed "
                  f"{', '.join(f'{x:.3f}' for x in r['times_s'])} s"
                  for t, r in results.items()]
        + [f"setup probes: {', '.join(f'{x:.3f}' for x in setup)} s"],
    }


# --- traced run ----------------------------------------------------------------

LAYER_METRICS = (
    # (metric, unit, layer, column) with column 0 self, 1 inclusive, 2 calls
    ("models.build_s", "s", "models.build", 1),
    ("models.sample_chunk.tw_s", "s", "models.sample_chunk.tw", 1),
    ("models.sample_chunk.zero_out_s", "s", "models.sample_chunk.zero_out", 1),
    ("models.sample_chunk.resample_s", "s", "models.sample_chunk.resample", 1),
    ("mc_engine.components_self_s", "s", "mc_engine.components", 0),
    ("mc_engine.collect_self_s", "s", "mc_engine.collect", 0),
    ("mc_engine.distance_s", "s", "mc_engine.distance", 1),
    ("mc_engine.distance_calls", "count", "mc_engine.distance", 2),
    ("marginals.quad_s", "s", "marginals.quad", 1),
    ("marginals.quad_calls", "count", "marginals.quad", 2),
    ("bound_core.solver_s", "s", "bound_core.solver", 1),
    ("bound_core.solver_calls", "count", "bound_core.solver", 2),
    ("app_bounds.assembly_s", "s", "app_bounds.assembly", 1),
    ("cli.parse_s", "s", "cli.parse", 1),
    ("cli.emit_s", "s", "cli.emit", 1),
    ("cli.self_s", "s", "cli.command", 0),
)


def format_table(table: dict, wall: float) -> str:
    lines = [f"{'layer':32s} {'self_s':>10s} {'incl_s':>10s} {'calls':>8s} "
             f"{'self%':>7s}"]
    for layer in sorted(table, key=lambda k: -table[k][0]):
        self_s, incl_s, calls = table[layer]
        lines.append(f"{layer:32s} {self_s:10.4f} {incl_s:10.4f} "
                     f"{calls:8.1f} {100.0 * self_s / wall:7.2f}")
    return "\n".join(lines)


def mean_table(tables: list) -> dict:
    out = {}
    for table in tables:
        for layer, row in table.items():
            acc = out.setdefault(layer, [0.0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k] / len(tables)
    return out


def trace(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    configs = WORKLOADS[name](seed, smoke)
    fresh_folder(name)
    job = write_job(name, configs, 1, seconds, 1)
    res = run_child("trace", job)
    errs = check_output(name, configs, job, [res])
    table = mean_table(res["tables"])
    traced = statistics.median(res["traced_s"])
    plain = statistics.median(res["plain_s"])
    wall = statistics.fmean(res["traced_s"])
    metrics = {}
    for metric, unit, layer, col in LAYER_METRICS:
        metrics[metric] = (table.get(layer, [0.0, 0.0, 0.0])[col], unit)
    chunk_layers = ("tw", "zero_out", "resample")
    metrics["models.sample_chunk_s"] = (sum(
        metrics[f"models.sample_chunk.{m}_s"][0] for m in chunk_layers), "s")
    replicates = sum(cfg["mc"].get("replicates", 0)
                     for _n, command, cfg in configs if command == "verify")
    drawn = statistics.fmean(c["sampled_rows"] for c in res["counts"])
    metrics["models.draws_per_replicate"] = (
        drawn / replicates if replicates else 0.0, "count")
    metrics["models.chunk_peak_mb"] = (res["chunk_peak_mib"], "MiB")
    metrics["mc_engine.distance_calls_unique"] = (statistics.fmean(
        c["distance_unique"] for c in res["counts"]), "count")
    metrics["cli.rows"] = (statistics.fmean(
        c["rows"] for c in res["counts"]), "count")
    coverage = sum(row[0] for row in table.values()) / wall
    metrics["trace.wall_s"] = (traced, "s")
    # each traced iteration directly follows its untraced twin, so the paired
    # difference shares the machine's state
    metrics["trace.overhead_s"] = (statistics.median(
        t - p for t, p in zip(res["traced_s"], res["plain_s"])), "s")
    metrics["trace.coverage_pct"] = (100.0 * coverage, "%")
    text = format_table(table, wall)
    (OUT / name / "layers.txt").write_text(text + "\n")
    return {
        "errors": errs, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
        "notes": [f"{len(res['traced_s'])} traced and {len(res['plain_s'])} "
                  f"untraced iterations; untraced median {plain:.4f} s",
                  "per-layer self times (mean per traced iteration):", text,
                  f"spans: {OUT / name / 'spans.json'}"],
    }


def report(name: str, res: dict) -> None:
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {not res['errors']}")
    for line in res["notes"]:
        print("   " + line.replace("\n", "\n   "))
    for key, m in res["metrics"].items():
        print(f"   {key:34s} {m['value']:14.6g} {m['unit']}")
    for err in res["errors"]:
        print(f"   CHECK FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload and check, quickly")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "belab" / "__init__.py").is_file():
        print(f"no belab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print("--seed must lie in [0, 2^63)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = trace if args.trace else measure
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, args.smoke)
            report(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": m for name, res in results.items()
                   for key, m in res["metrics"].items()}
    print(json.dumps({
        "correct": not any(r["errors"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
