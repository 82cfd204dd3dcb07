#!/usr/bin/env python
"""Batch scan engine: wall-clock speedup of batched scans vs per-op scans.

Not a paper figure — this benchmark validates the vectorized batch scan
path that completes the serving stack's batching story (batched point
reads, batched writes, batched range scans).  It replays one seeded
``scan_mix`` trace (YCSB-E-style: 75% reads / 5% inserts / 20% scans)
through two identically built 4-shard services, once op by op through
the service's per-op ``search``/``insert``/``range_scan`` calls (the
per-op loop the test suite also holds the Router to,
``tests/per_op_replay.py``; each read is a batch of one) and once
through the Router, whose per-shard ``apply_many`` calls drive each run
of scans through ``range_scan_many``, and checks the contract:

* the two replays produce **bit-identical** per-op results and equal
  merged ``IOStats`` (per-op simulated latencies and clocks equal up to
  float summation order);
* the Router replay is at least **3x** faster in interpreter wall-clock
  over a 10k-op trace at 4 shards.

The per-op loop is per-op for point reads as well as scans, so the
service ratio credits read batching too.  A second section therefore
gates the scan engine alone: one ``BFTree.range_scan_many`` batch
against a per-window ``range_scan`` loop (batches of one) on one
unsharded tree, bit-identical and at least **3x** faster.  The measured
numbers are emitted as a JSON report so CI can track the speedups over
time.

Run standalone (also the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_scan_batch.py --smoke
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import BFTree, BFTreeConfig
from repro.harness import run_service
from repro.service import ShardedIndex
from repro.storage import build_stack
from repro.workloads import derive_seed, generate_trace, synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from per_op_replay import replay_per_op  # noqa: E402

N_OPS = 10_000
N_SHARDS = 4
MIN_SPEEDUP = 3.0


def _build_service(relation, args):
    return ShardedIndex.build(
        relation, "pk", n_shards=N_SHARDS, kind="bf",
        config=BFTreeConfig(fpp=args.fpp), unique=True,
    )


def _service_section(relation, args):
    trace = generate_trace(
        relation, "pk", mix="scan_mix", n_ops=args.ops, skew="zipfian",
        seed=derive_seed(args.seed, "trace"),
    )
    # Wall-clock gate: best-of-N fresh-service replays per side, so a
    # scheduler hiccup on a shared CI runner can't flunk the contract.
    per_op_times, batch_times = [], []
    rep_per_op = rep_batch = None
    for _ in range(args.trials):
        rep_per_op = replay_per_op(
            _build_service(relation, args), trace, args.config
        )
        rep_batch = run_service(
            _build_service(relation, args), trace, args.config,
        )
        per_op_times.append(rep_per_op.stats.wall_secs)
        batch_times.append(rep_batch.stats.wall_secs)
    scans = rep_batch.latency("scan")
    return {
        "n_ops": len(trace),
        "n_scans": int(np.count_nonzero(trace.ops == 2)),
        "n_shards": N_SHARDS,
        "tuples": relation.ntuples,
        "fpp": args.fpp,
        "trials": args.trials,
        "per_op_secs": min(per_op_times),
        "batch_secs": min(batch_times),
        "speedup": min(per_op_times) / min(batch_times),
        "results_identical": rep_batch.results == rep_per_op.results,
        "iostats_identical": rep_batch.io == rep_per_op.io,
        "latencies_close": bool(np.allclose(
            rep_batch.stats.op_latencies, rep_per_op.stats.op_latencies,
            rtol=1e-9,
        )),
        "makespan_close": math.isclose(
            rep_batch.stats.makespan, rep_per_op.stats.makespan,
            rel_tol=1e-9,
        ),
        "scan_p50_us": scans.p50 * 1e6,
        "scan_p99_us": scans.p99 * 1e6,
    }


def _engine_section(relation, args):
    """One unsharded BFTree.range_scan_many batch vs a per-window
    range_scan loop (batches of one)."""
    rng = np.random.default_rng(derive_seed(args.seed, "probes"))
    n = max(200, args.ops // 10)
    los = rng.integers(0, relation.ntuples, size=n)
    widths = rng.integers(1, 101, size=n)
    windows = [(int(lo), int(lo + w - 1)) for lo, w in zip(los, widths)]

    def build():
        return BFTree.bulk_load(
            relation, "pk", BFTreeConfig(fpp=args.fpp), unique=True
        )

    per_op_tree, batch_tree = build(), build()
    stack_s, stack_b = build_stack(args.config), build_stack(args.config)
    per_op_tree.bind(stack_s)
    batch_tree.bind(stack_b)
    t0 = time.perf_counter()
    per_op_out = [per_op_tree.range_scan(lo, hi) for lo, hi in windows]
    per_op_secs = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_out = batch_tree.range_scan_many(windows)
    batch_secs = time.perf_counter() - t0
    per_op_tree.unbind()
    batch_tree.unbind()
    return {
        "n_scans": len(windows),
        "per_op_secs": per_op_secs,
        "batch_secs": batch_secs,
        "speedup": per_op_secs / batch_secs,
        "results_identical": batch_out == per_op_out,
        "iostats_identical":
            stack_b.stats.snapshot() == stack_s.stats.snapshot(),
        "clock_close": math.isclose(stack_s.elapsed(), stack_b.elapsed(),
                                    rel_tol=1e-9),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small relation for CI (seconds, not minutes)")
    parser.add_argument("--tuples", type=int, default=65536)
    parser.add_argument("--ops", type=int, default=N_OPS)
    parser.add_argument("--trials", type=int, default=3,
                        help="fresh-service replays per side; the gate "
                             "takes best-of to shrug off CI scheduler "
                             "noise")
    parser.add_argument("--fpp", type=float, default=1e-3)
    parser.add_argument("--config", default="MEM/SSD")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.tuples = min(args.tuples, 16384)

    relation = synthetic.generate(
        args.tuples, seed=derive_seed(args.seed, "relation")
    )
    report = {
        "params": {
            "tuples": args.tuples,
            "ops": args.ops,
            "fpp": args.fpp,
            "config": args.config,
            "smoke": args.smoke,
            "contract_min_speedup": MIN_SPEEDUP,
        },
        "service": _service_section(relation, args),
        "engine": _engine_section(relation, args),
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    failures = []
    svc = report["service"]
    if not svc["results_identical"]:
        failures.append("Router replay returned different results than "
                        "the per-op service loop")
    if not svc["iostats_identical"]:
        failures.append("Router replay IOStats diverged from the per-op "
                        "service loop")
    if not (svc["latencies_close"] and svc["makespan_close"]):
        failures.append("Router replay simulated latencies/makespan "
                        "diverged")
    if svc["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"batched service replay only {svc['speedup']:.1f}x faster "
            f"than the per-op loop (contract: >= {MIN_SPEEDUP}x)"
        )
    eng = report["engine"]
    if not (eng["results_identical"] and eng["iostats_identical"]
            and eng["clock_close"]):
        failures.append("range_scan_many diverged from the per-window "
                        "loop")
    if eng["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"range_scan_many only {eng['speedup']:.1f}x faster than the "
            f"per-window range_scan loop (contract: >= {MIN_SPEEDUP}x)"
        )
    if failures:
        print("\n".join("FAIL: " + f for f in failures), file=sys.stderr)
        return 1
    print(
        f"OK: {svc['n_scans']} batched scans in a {svc['n_ops']}-op "
        f"scan_mix trace bit-identical to the per-op loop at "
        f"{svc['speedup']:.1f}x wall-clock; unsharded range_scan_many "
        f"identical at {eng['speedup']:.1f}x (contract: both >= "
        f"{MIN_SPEEDUP}x)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
