"""Child process of the benchmark: runs one workload's configs through the
``belab.cli`` command functions and reports timings as JSON on stdout.

    python3 perfbench/worker.py setup <config.json>
    python3 perfbench/worker.py time  <job.json>
    python3 perfbench/worker.py trace <job.json>

``setup`` imports belab, parses the config, builds the first model and its
``beta``, prints ``ready`` and exits; the parent times it from the outside.
``time`` runs an untimed warm-up iteration and then timed iterations until
the job's measuring budget is spent. ``trace`` alternates untraced and traced
iterations, then runs one more with tracemalloc around ``sample_chunk``.
The parent sets PYTHONPATH to the checkout's ``src`` and fixes the BLAS
thread count, so ``mc.threads`` is the only parallelism.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _import_belab(root: Path):
    import belab

    src = (root / "src").resolve()
    where = Path(belab.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"belab imported from {where}, not from {src}")
    return belab


def run_setup(config_path: str) -> None:
    from belab import bound_core, cli, models

    with open(config_path, encoding="utf-8") as fh:
        cfg = cli.parse_config(fh.read())
    model = models.build_model(cfg.model_desc)
    bound_core.compute_beta(model.linear_part)
    print("ready", flush=True)


class Job:
    """One workload at one thread count: its configs, commands and budget."""

    def __init__(self, spec: dict):
        self.configs = spec["configs"]  # [{"name", "command", "path"}]
        self.budget_s = float(spec["budget_s"])
        self.min_iterations = int(spec["min_iterations"])

    def iteration(self, cli, belab_error):
        """Run every config once; returns (seconds, hashes, rows, failed)."""
        hashes = {}
        rows_out = 0
        failed = 0
        start = time.perf_counter()
        for item in self.configs:
            with open(item["path"], encoding="utf-8") as fh:
                text = fh.read()
            try:
                cfg = cli.parse_config(text)
                cmd = cli.cmd_verify if item["command"] == "verify" else cli.cmd_sweep
                rows, _notes = cmd(cfg)
                out = cli.emit_results(rows, cfg.output_format, cfg.output_path)
            except belab_error as exc:
                print(f"{item['name']}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed += 1
                continue
            hashes[item["name"]] = hashlib.sha256(out.encode()).hexdigest()
            rows_out += len(rows)
        return time.perf_counter() - start, hashes, rows_out, failed


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_time(job: Job, cli, belab_error) -> dict:
    warm, hashes, _rows, failed = job.iteration(cli, belab_error)
    seen = [hashes]
    times = []
    attempted = len(job.configs)
    began = time.perf_counter()
    # stop before an iteration that would end past the budget
    while (len(times) < job.min_iterations
           or time.perf_counter() - began + times[-1] <= job.budget_s):
        secs, hashes, _rows, bad = job.iteration(cli, belab_error)
        times.append(secs)
        seen.append(hashes)
        attempted += len(job.configs)
        failed += bad
    return {"warmup_s": warm, "times_s": times, "hashes": seen,
            "attempted": attempted, "failed": failed,
            "peak_rss_mib": _peak_rss_mib()}


def run_trace(job: Job, cli, belab_error, spans_path: str) -> dict:
    from tracer import Tracer, layer_table

    tracer = Tracer()
    warm, hashes, _rows, failed = job.iteration(cli, belab_error)
    seen = [hashes]
    attempted = len(job.configs)
    plain, traced, tables, counts = [], [], [], []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < job.budget_s:
        secs, hashes, _rows, bad = job.iteration(cli, belab_error)
        plain.append(secs)
        seen.append(hashes)
        tracer.reset()
        tracer.install()
        try:
            secs, hashes, rows, bad2 = job.iteration(cli, belab_error)
        finally:
            tracer.uninstall()
        traced.append(secs)
        seen.append(hashes)
        tables.append(layer_table(tracer.spans))
        counts.append({"sampled_rows": tracer.sampled_rows,
                       "distance_unique": len(tracer.distance_keys),
                       "rows": rows})
        attempted += 2 * len(job.configs)
        failed += bad + bad2
    spans = tracer.spans
    tracer.reset()
    tracer.install(memory_only=True)
    try:
        _secs, hashes, _rows, bad = job.iteration(cli, belab_error)
    finally:
        tracer.uninstall()
    seen.append(hashes)
    attempted += len(job.configs)
    failed += bad
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent",
                              "thread"], "spans": spans}, fh)
    return {"warmup_s": warm, "plain_s": plain, "traced_s": traced,
            "tables": tables, "counts": counts,
            "chunk_peak_mib": tracer.chunk_peak_bytes / 2 ** 20,
            "hashes": seen, "attempted": attempted, "failed": failed,
            "peak_rss_mib": _peak_rss_mib()}


def main(argv) -> int:
    mode, path = argv[1], argv[2]
    root = Path(__file__).resolve().parent.parent
    belab = _import_belab(root)
    if mode == "setup":
        run_setup(path)
        return 0
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    job = Job(spec)
    if mode == "time":
        result = run_time(job, belab.cli, belab.BelabError)
    elif mode == "trace":
        result = run_trace(job, belab.cli, belab.BelabError, spec["spans_path"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
