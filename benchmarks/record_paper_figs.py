#!/usr/bin/env python
"""Append one wall-clock entry to ``BENCH_paper_figs.json``.

Runs every ``benchmarks/bench_*.py`` once (``--benchmark-disable``, so
each benchmark body runs a single time and its shape assertions still
fire) with ``--durations=0``, then the tier-1 suite, and appends an
entry keyed by commit, core count and python/numpy versions: per-bench
wall seconds (setup + call + teardown, summed per file; pytest hides
phases under 5 ms, so a file whose tests all run that fast is absent),
the bench session's wall seconds and pytest summary line, and the same
two for tier-1.  Simulated numbers are not recorded here — the emitted paper
tables are the correctness reference; this file tracks how long the
reproduction takes to run.

Usage, from the repo root::

    PYTHONPATH=src python benchmarks/record_paper_figs.py
    # another checkout (e.g. an exported parent commit without .git):
    python benchmarks/record_paper_figs.py --root ../parent --commit abc123
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / "BENCH_paper_figs.json"
DURATION = re.compile(r"^([\d.]+)s\s+(?:setup|call|teardown)\s+(\S+?)::")


def _pytest(root: Path, args: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=root, env=env, capture_output=True, text=True,
    )
    return time.perf_counter() - t0, proc.stdout


def _summary(output: str) -> str:
    lines = [l for l in output.splitlines() if l.strip()]
    return lines[-1].strip("= ") if lines else ""


def _commit(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def record(root: Path, commit: str | None) -> dict:
    benches = sorted(str(p.relative_to(root))
                     for p in (root / "benchmarks").glob("bench_*.py"))
    bench_wall, bench_out = _pytest(
        root, [*benches, "-q", "--benchmark-disable", "--durations=0"]
    )
    per_bench: dict[str, float] = defaultdict(float)
    for line in bench_out.splitlines():
        match = DURATION.match(line.strip())
        if match:
            per_bench[Path(match.group(2)).name] += float(match.group(1))
    tier1_wall, tier1_out = _pytest(root, ["-x", "-q"])
    return {
        "commit": commit or _commit(root),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benches_wall_s": round(bench_wall, 2),
        "benches_summary": _summary(bench_out),
        "per_bench_s": {name: round(secs, 2)
                        for name, secs in sorted(per_bench.items())},
        "tier1_wall_s": round(tier1_wall, 2),
        "tier1_summary": _summary(tier1_out),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout to measure (default: this repo)")
    parser.add_argument("--commit", default=None,
                        help="commit id to record (default: git HEAD of "
                             "--root)")
    args = parser.parse_args(argv)
    entry = record(args.root.resolve(), args.commit)
    data = json.loads(OUT.read_text()) if OUT.exists() else {"runs": []}
    data["runs"].append(entry)
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
