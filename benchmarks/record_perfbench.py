#!/usr/bin/env python
"""Append perfbench medians to ``BENCH_perfbench.json``, one entry per commit.

Runs the repo benchmark (``perfbench/run.py``, declared in
``BENCHMARK.json``) on every workload ``RUNS`` times untraced, at seed
``SEED`` for ``BENCHMARK.json``'s ``run_seconds``, then every workload
``TRACED_RUNS`` times traced (``--trace 1``).  It appends an entry keyed
by commit, core count and python/numpy versions: per workload and
metric, the median, the quartiles and every run's value in run order;
whether every run answered correctly; and the operations that failed —
under ``workloads`` for the end-to-end runs and under ``traced`` for the
per-layer ones, keyed by workload name, so a claimed workload's layer
numbers sit beside its pairs.  (Older entries hold one traced run per
workload, as ``traced[workload]["metrics"]``, and the oldest one traced
``read_heavy`` run, named in ``traced["workload"]``.)

Given several ``--root`` checkouts (e.g. a parent commit and a change),
the runs form pairs — run *i* of every root back to back, the first root
rotating from pair to pair — so a drift in host speed hits each side
alike and ``values[i]`` of two entries compare as pair *i*.  ``RUNS`` is
ten, the fewest pairs a gain may be claimed on; ``TRACED_RUNS`` is
three, since one traced run per side reads whole layers 20-30% off on a
shared host.  One entry is appended per root, in ``--root`` order.

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
TRACED_RUNS = 3
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
    order = list(range(len(roots)))

    def alternate(runs: int, trace: int) -> list[dict[str, list[dict]]]:
        raw: list[dict[str, list[dict]]] = [
            {w: [] for w in workloads} for _ in roots
        ]
        for pair in range(runs):
            first = pair % len(roots)
            for workload in workloads:
                for i in order[first:] + order[:first]:
                    raw[i][workload].append(_run(roots[i], workload,
                                                 seconds, trace))
        return raw

    untraced = alternate(RUNS, trace=0)
    traced = alternate(TRACED_RUNS, trace=1)
    return [{
        "commit": commit or _commit(root),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {workload: _summary(results)
                      for workload, results in per_workload.items()},
        "traced": {workload: _summary(results)
                   for workload, results in per_traced.items()},
    } for root, commit, per_workload, per_traced in zip(roots, commits,
                                                         untraced, traced)]


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
