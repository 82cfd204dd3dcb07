#!/usr/bin/env python
"""Append perfbench medians to ``BENCH_perfbench.json``, one entry per commit.

Runs the repo benchmark (``perfbench/run.py``, declared in
``BENCHMARK.json``) on every workload ``RUNS`` times untraced, at seed
``SEED`` for ``BENCHMARK.json``'s ``run_seconds``, then every workload
once traced (``--trace 1``).  It appends an entry keyed by commit, core
count and python/numpy versions: per workload and end-to-end metric, the
median, the quartiles and every run's value in run order; whether every
run answered correctly; the operations that failed; and, under
``traced``, each workload's per-layer metrics keyed by workload name, so
a claimed workload's layer numbers sit beside its pairs.  (Entries
recorded before every workload was traced hold one traced ``read_heavy``
run, named in ``traced["workload"]``.)

Given several ``--root`` checkouts (e.g. a parent commit and a change),
the runs form pairs — run *i* of every root back to back, the first root
rotating from pair to pair — so a drift in host speed hits each side
alike and ``values[i]`` of two entries compare as pair *i*.  ``RUNS`` is
ten, the fewest pairs a gain may be claimed on.  One entry is appended
per root, in ``--root`` order.

Usage, from the repo root::

    python benchmarks/record_perfbench.py
    # parent (an exported checkout without .git) against this tree:
    python benchmarks/record_perfbench.py --root ../parent --commit abc123 \\
        --root . --commit def456
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "BENCH_perfbench.json"
RUNS = 10
SEED = 1


def _run(root: Path, workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} failed in {root}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def _summary(results: list[dict]) -> dict:
    values = {name: [round(r["metrics"][name]["value"], 4) for r in results]
              for name in results[0]["metrics"]}
    return {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "median": {name: round(statistics.median(v), 4)
                   for name, v in values.items()},
        "quartiles": {name: [round(q, 4) for q in
                             statistics.quantiles(v, n=4)[::2]]
                      for name, v in values.items()},
        "values": values,
    }


def _commit(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def record(roots: list[Path], commits: list[str | None]) -> list[dict]:
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    raw: list[dict[str, list[dict]]] = [
        {w: [] for w in workloads} for _ in roots
    ]
    order = list(range(len(roots)))
    for pair in range(RUNS):
        first = pair % len(roots)
        for workload in workloads:
            for i in order[first:] + order[:first]:
                raw[i][workload].append(_run(roots[i], workload, seconds,
                                             trace=0))
    traced = [{workload: _run(root, workload, seconds, trace=1)
               for workload in workloads}
              for root in roots]
    return [{
        "commit": commit or _commit(root),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {workload: _summary(results)
                      for workload, results in per_workload.items()},
        "traced": {
            workload: {
                "correct": trace["correct"],
                "metrics": {name: round(m["value"], 4)
                            for name, m in trace["metrics"].items()},
            }
            for workload, trace in per_root.items()
        },
    } for root, commit, per_workload, per_root in zip(roots, commits, raw,
                                                       traced)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to measure; repeat to alternate "
                             "runs across checkouts (default: this repo)")
    parser.add_argument("--commit", action="append", default=[],
                        help="commit id to record for the matching --root "
                             "(default: git HEAD of that root)")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [REPO])]
    if len(args.commit) > len(roots):
        parser.error("more --commit than --root")
    commits = args.commit + [None] * (len(roots) - len(args.commit))
    entries = record(roots, commits)
    data = json.loads(OUT.read_text()) if OUT.exists() else {"runs": []}
    data["runs"].extend(entries)
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(entries, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
