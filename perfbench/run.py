#!/usr/bin/env python3
"""Layered benchmark of hodgelim: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record     # rewrite perfbench/reference.json

Run from the root of a checkout; the program is imported from ``src/``.
A run sets up its workload several times (import, build, write, warm-up),
then repeats whole passes over the workload's job list until ``--seconds``
have passed, and checks every job's output.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics per pass.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Scratch files go to ``.bench_work/`` in the checkout.
See perfbench/README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import COUNTED_SPANS, INCLUSIVE_SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("search", "certify", "dense")
SETUP_REPEATS = 5
MIN_JOBS = 100


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it.  With N samples, N - ceil(q N) of them
    lie strictly beyond the rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def environment(hodgelim) -> dict:
    try:
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit,
            # the backend module is slated for removal; then only Python runs
            "backend": getattr(hodgelim, "BACKEND_NAME", "python")}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_pass(jobs, checker, tracer=None, pass_no=0):
    """Run every job once, back to back; check outputs after the pass.

    Returns (wall seconds, per-job latencies in seconds, failed count)."""
    results = []
    t_pass = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.set_job(f"pass{pass_no}/{job.name}")
        t0 = time.perf_counter()
        try:
            rc, out = job.run()
        except Exception as exc:  # a raising job is a failed job
            rc, out = None, f"{type(exc).__name__}: {exc}"
        results.append((job.name, rc, out, time.perf_counter() - t0))
    wall = time.perf_counter() - t_pass
    failed = 0
    for name, rc, out, _ in results:
        if not checker.ok(name, rc, out):
            failed += 1
            print(f"FAILED {name}: exit {rc}", file=sys.stderr)
    return wall, [r[3] for r in results], failed


def setup(workloads, name: str, seed: int, tracer=None):
    """Build, write and warm up; returns (jobs, seconds)."""
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.set_job("setup")
    jobs = workloads.PREPARE[name](seed, fresh_dir(os.path.join(WORK, name)))
    if tracer is not None:
        tracer.set_job("warmup")
    for job in workloads.warmup_jobs(jobs):
        job.run()
    return jobs, time.perf_counter() - t0


def measure(jobs, checker, seconds: float):
    latencies, walls, failed = [], [], 0
    while sum(walls) < seconds or len(latencies) < MIN_JOBS:
        wall, lat, bad = run_pass(jobs, checker)
        walls.append(wall)
        latencies.extend(lat)
        failed += bad
    return latencies, walls, failed


def end_to_end(workloads, name, seed, seconds, checker, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        jobs, took = setup(workloads, name, seed)
        setups.append(took)
    latencies, walls, failed = measure(jobs, checker, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        # whole passes of one job list; the median pass is robust to a
        # passing slowdown of the machine
        "jobs_per_s": (len(jobs) / statistics.median(walls), "1/s"),
        "job_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "job_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    extra = {"failed_frac": (failed / len(latencies), "1"),
             "samples": (len(latencies), "jobs"),
             "passes": (len(walls), "passes")}
    return metrics, extra, len(latencies), failed


def traced(workloads, name, seed, seconds, checker):
    tracer = Tracer()
    tracer.install()
    try:
        jobs, _ = setup(workloads, name, seed, tracer)
    finally:
        tracer.uninstall()
    tracer.counters.clear()  # only builders.self_s is taken from set-up
    plain, traced_walls, attempted, failed = [], [], 0, 0
    while sum(plain) + sum(traced_walls) < seconds or not traced_walls:
        wall, lat, bad = run_pass(jobs, checker)
        plain.append(wall)
        attempted += len(lat)
        failed += bad
        tracer.install()
        try:
            wall, lat, bad = run_pass(jobs, checker, tracer, len(traced_walls))
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        attempted += len(lat)
        failed += bad
    passes = len(traced_walls)
    metrics = layer_metrics(tracer, passes)
    metrics["trace.overhead_ratio"] = (sum(traced_walls) / sum(plain), "1")
    tracer.write_spans(os.path.join(WORK, name, "spans.jsonl"))
    extra = {"traced_passes": (passes, "passes")}
    return metrics, extra, attempted, failed


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer calls and self times per traced pass; builders from set-up."""
    own = tracer.self_times()
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    builders_setup = 0.0
    for i, s in enumerate(own):
        span = tracer.names[tracer.name_of[i]]
        job = tracer.jobs[tracer.job_of[i]]
        if job == "setup":
            if span == "builders":
                builders_setup += s
            continue
        if job == "warmup":
            continue
        calls[span] = calls.get(span, 0) + 1
        self_s[span] = self_s.get(span, 0.0) + s
    out = {}
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = (calls.get(span, 0) / passes, "count")
        out[f"{span}.self_s"] = (self_s.get(span, 0.0) / passes, "s")
    for span in INCLUSIVE_SPANS:
        out[f"{span}.total_s"] = (
            tracer.inclusive_time(span, skip_jobs=("setup", "warmup")) / passes,
            "s")
    out["io.from_json.self_s"] = (self_s.get("io.from_json", 0.0) / passes, "s")
    out["builders.self_s"] = (builders_setup, "s")
    c = tracer.counters

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    for key, unit in (("endo.solve_in_span.unknowns", "count"),
                      ("endo.solve_in_span.cond_rows", "count"),
                      ("matrices.t_rref.entries", "count"),
                      ("io.load_file.bytes", "B"),
                      ("io.dump_text.bytes", "B"),
                      ("search.restarts", "count"),
                      ("search.steps", "count"),
                      ("cli.exit_0", "count"), ("cli.exit_1", "count"),
                      ("cli.exit_2", "count")):
        out[key] = (c[key] / passes, unit)
    out["endo.solve_in_span.nnz_frac"] = (
        ratio("endo.solve_in_span.nnz", "endo.solve_in_span.entries"), "1")
    out["matrices.t_rref.nnz_frac"] = (
        ratio("matrices.t_rref.nnz", "matrices.t_rref.entries"), "1")
    out["matrices.t_rref.max_bits"] = (c["matrices.t_rref.max_bits"], "bits")
    out["search.useful_ratio"] = (ratio("search.useful", "search.restarts"), "1")
    return out


def record() -> int:
    """Write reference.json: canonical invariants and reference-seed digests."""
    import workloads

    ref = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name in WORKLOADS:
        prepare = workloads.PREPARE[name]
        canonical = {}
        workdir = os.path.join(WORK, "record-" + name)
        for job in prepare(None, fresh_dir(workdir)):
            rc, out = job.run()
            canonical[job.name] = (rc, workloads.invariants(json.loads(out)))
        entries = {}
        for job in prepare(workloads.REFERENCE_SEED, fresh_dir(workdir)):
            rc, out = job.run()
            exp_rc, inv = canonical[job.name]
            if rc != exp_rc:
                print(f"{name}: {job.name} exits {rc} at the reference seed "
                      f"but {exp_rc} in canonical coordinates", file=sys.stderr)
                return 1
            entries[job.name] = {"rc": rc, "sha256": workloads.digest(out),
                                 "invariants": inv}
        ref["workloads"][name] = dict(sorted(entries.items()))
        print(f"{name}: {len(entries)} jobs recorded")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the reference outputs and exit")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "hodgelim", "__init__.py")):
        print(f"error: no hodgelim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    hodgelim = importlib.import_module("hodgelim")
    importlib.import_module("hodgelim.cli")
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(hodgelim.__file__)) != os.path.join(
            SRC, "hodgelim"):
        print(f"error: imported hodgelim from {hodgelim.__file__}",
              file=sys.stderr)
        return 2
    if args.record:
        return record()

    import workloads

    with open(REFERENCE, encoding="utf-8") as fh:
        checker = workloads.Checker(json.load(fh), args.workload, args.seed)
    if args.trace:
        metrics, extra, attempted, failed = traced(
            workloads, args.workload, args.seed, args.seconds, checker)
    else:
        metrics, extra, attempted, failed = end_to_end(
            workloads, args.workload, args.seed, args.seconds, checker,
            import_s)
    env = environment(hodgelim)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(WORK, args.workload, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   "extra": {k: v for k, (v, _) in extra.items()},
                   **result}, fh, indent=1, sort_keys=True)
    print(f"workload {args.workload}  seed {args.seed}  env {json.dumps(env)}")
    for k, (v, u) in list(metrics.items()) + list(extra.items()):
        print(f"  {k:42s} {v:>14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
