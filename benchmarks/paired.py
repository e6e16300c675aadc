#!/usr/bin/env python3
"""Paired perfbench runs: a revision against HEAD, on fresh exports.

    python3 benchmarks/paired.py --against REV
    python3 benchmarks/paired.py --against REV --workload certify
    python3 benchmarks/paired.py --against HEAD --head "$(git stash create)"

The last form measures the uncommitted changes to tracked files.  Both
revisions are exported with ``git archive`` into fresh directories, so
neither side has bytecode the other lacks and ``setup_s`` compiles alike
on both.  Each of ten pairs runs ``perfbench/run.py --trace 0`` at seed
0 once per side, in its own process, for ``BENCHMARK.json``'s
``run_seconds``, and the side that goes first alternates from pair to
pair.  For every end-to-end metric of ``BENCHMARK.json`` the summary
gives both medians, REV's quartile distance, and the number of pairs in
which HEAD is better.  Its verdict is one of:

- ``worse``: HEAD's median is worse than REV's by more than the bound;
- ``unresolved``: on either side the quartile distance exceeds the bound,
  relative to the median, so the runs cannot tell a change of that size;
- ``gain``: all ten pairs ran, HEAD is better in at least nine of them,
  and its median by more than REV's quartile distance;
- ``same``: none of these.

Then one traced pass per side lists the ``*.calls`` counters that
differ, a counter one side lacks reading 0 there; those counts do not
depend on the machine's speed.  The exit code is 2 when a revision is
unknown, 1 when a run fails or reports a wrong output, else 0.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("search", "certify", "dense")
# seed 0 checks every output against the recorded reference
SEED = 0
# fewer pairs cannot show a gain in nine of ten
PAIRS = 10
# one traced pass reads the call counts; its length does not change them
TRACE_SECONDS = 2


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _relative(x: float, base: float) -> float:
    return x / abs(base) if base else (0.0 if x == 0 else float("inf"))


def summarize(pairs, contract) -> list[dict]:
    """One row per metric of ``contract`` (``BENCHMARK.json``'s
    ``end_to_end`` list) over ``pairs``, a list of (REV, HEAD) metric
    dicts from the same pair of runs."""
    rows = []
    for metric in contract:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        base = [rev[name] for rev, _ in pairs]
        head = [new[name] for _, new in pairs]
        qb, qh = quartiles(base), quartiles(head)
        iqr = qb[2] - qb[0]
        wins = sum(sign * (y - x) < 0 for x, y in zip(base, head))
        worse_by = _relative(sign * (qh[1] - qb[1]), qb[1])
        spread = max(_relative(iqr, qb[1]), _relative(qh[2] - qh[0], qh[1]))
        if worse_by > bound:
            verdict = "worse"
        elif spread > bound:
            verdict = "unresolved"
        elif (len(pairs) >= PAIRS and wins >= 0.9 * len(pairs)
              and sign * (qb[1] - qh[1]) > iqr):
            verdict = "gain"
        else:
            verdict = "same"
        rows.append({"metric": name, "rev_median": qb[1],
                     "head_median": qh[1], "rev_iqr": iqr, "wins": wins,
                     "pairs": len(pairs), "worse_by": worse_by,
                     "spread": spread, "verdict": verdict})
    return rows


def call_changes(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """The ``*.calls`` counters whose values differ between the traced
    metric dicts ``before`` and ``after``, as (name, before, after); a
    counter only one side has reads 0 on the other."""
    names = sorted(k for k in before.keys() | after.keys()
                   if k.endswith(".calls"))
    return [(k, before.get(k, 0), after.get(k, 0)) for k in names
            if before.get(k, 0) != after.get(k, 0)]


def export(rev: str, dest: str) -> str:
    """Extract ``git archive`` of ``rev`` into ``dest``; return the
    commit hash."""
    found = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True)
    if found.returncode:
        print(f"error: no commit named {rev!r}", file=sys.stderr)
        sys.exit(2)
    commit = found.stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return commit


def run_perfbench(tree: str, workload: str, seconds: float,
                  trace: int) -> dict | None:
    """The last JSON line of one perfbench run, or None if it crashed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def _values(result: dict) -> dict[str, float]:
    return {k: m["value"] for k, m in result["metrics"].items()}


def _failed(results) -> bool:
    return any(r is None or not r["correct"] for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", required=True, metavar="REV",
                    help="the revision HEAD is compared with")
    ap.add_argument("--head", default="HEAD", metavar="REV",
                    help="the revision measured, HEAD by default")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default all three")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    contract, seconds = bench["end_to_end"], bench["run_seconds"]

    ok = True
    with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("rev", "head")}
        rev, head = export(args.against, trees["rev"]), export(
            args.head, trees["head"])
        print(f"rev {rev[:12]}  head {head[:12]}  seed {SEED}  "
              f"{seconds:g} s per run")
        for workload in args.workload or WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                order = ("rev", "head") if i % 2 == 0 else ("head", "rev")
                got = {side: run_perfbench(trees[side], workload,
                                           seconds, 0)
                       for side in order}
                if _failed(got.values()):
                    print(f"{workload}: pair {i + 1} failed")
                    ok = False
                    continue
                pairs.append((_values(got["rev"]), _values(got["head"])))
            print(f"\n{workload}: {len(pairs)} pairs")
            print(f"  {'metric':12s} {'rev':>10s} {'head':>10s} "
                  f"{'rev IQR':>10s} {'wins':>5s}  verdict")
            for row in summarize(pairs, contract) if pairs else ():
                print(f"  {row['metric']:12s} {row['rev_median']:10.4g} "
                      f"{row['head_median']:10.4g} {row['rev_iqr']:10.3g} "
                      f"{row['wins']:>2d}/{row['pairs']:<2d}  "
                      f"{row['verdict']}")
            traced = [run_perfbench(trees[side], workload, TRACE_SECONDS, 1)
                      for side in ("rev", "head")]
            if _failed(traced):
                print("  traced pass failed")
                ok = False
                continue
            before, after = (_values(r) for r in traced)
            for k, old, new in call_changes(before, after):
                print(f"  {k:36s} {old:>10.0f} -> {new:.0f}"
                      f"{'  rose' if new > old else ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
