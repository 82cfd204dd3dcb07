#!/usr/bin/env python
"""Elastic rebalancing under a moving hotspot: on vs off, gated.

Not a paper figure — this benchmark validates the dynamic-topology
subsystem built on top of the reproduction.  A Zipfian hotspot drifts
across the key space in phases (``skew="hotspot"``); a static partition
melts one shard at a time, while the :class:`~repro.service.rebalance.
Rebalancer` splits the hot shard and re-merges cooled neighbours.  The
two runs replay the *same* seeded trace through the same windowed loop
(:func:`~repro.service.rebalance.run_elastic_service`), differing only
in whether the control loop is attached.

Simulated per-op service times are load-independent, so the tail-latency
comparison is made under the open-loop FIFO queueing model
(:func:`~repro.service.stats.queued_response_times`): ops arrive at a
fixed rate and queue behind their shard's backlog.  The arrival rate is
derived from the static run's own mean service time at utilisation
``rho`` per shard, so the melted hot shard's queue diverges while a
balanced topology keeps queues short.

Gates (exit 1 on failure, so CI fails loudly):

* rebalancing ON performs at least one split (the hotspot is hot enough
  to trip the controller);
* ON beats OFF on queued p99 latency;
* ON beats OFF on mean per-window load-balance ratio (max/mean shard
  clock; 1.0 is perfect balance);
* per-op results of both runs are bit-identical (topology changes never
  change answers).

Run standalone (also the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_rebalance.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import BFTreeConfig
from repro.service import (
    Rebalancer,
    RebalancerConfig,
    ShardedIndex,
    run_elastic_service,
)
from repro.workloads import derive_seed, generate_trace, synthetic

RHO = 0.7                       # per-shard utilisation for the arrival rate
MIN_INITIAL_SHARDS = 4          # the contract is stated at >= 4 shards


def _build_service(relation, column, n_shards, fpp):
    return ShardedIndex.build(
        relation, column, n_shards=n_shards, kind="bf",
        config=BFTreeConfig(fpp=fpp), unique=True,
    )


def _run(relation, column, trace, args, rebalance: bool):
    service = _build_service(relation, column, args.shards, args.fpp)
    rebalancer = None
    if rebalance:
        rebalancer = Rebalancer(service, RebalancerConfig(
            hot_factor=args.hot_factor,
            cold_factor=args.cold_factor,
            sustain=args.sustain,
            cooldown=args.cooldown,
            max_shards=args.max_shards,
        ))
    report = run_elastic_service(
        service, trace, args.config,
        rebalancer=rebalancer,
        window_ops=args.window_ops,
    )
    return report


def _side(report, arrival_rate) -> dict:
    return {
        "initial_shards": report.initial_shards,
        "final_shards": report.final_shards,
        "final_epoch": report.final_epoch,
        "service_latency": report.latency_summary().to_dict(),
        "queued_latency": (
            report.queued_latency_summary(arrival_rate).to_dict()
        ),
        "mean_load_balance": report.windows.mean_load_balance(),
        "worst_load_balance": report.windows.worst_load_balance(),
        "rebalance": report.log.to_dict(),
        "wall_secs": report.wall_secs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (seconds, not minutes)")
    parser.add_argument("--tuples", type=int, default=65536)
    parser.add_argument("--ops", type=int, default=16384)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--phases", type=int, default=4)
    parser.add_argument("--hotspot-width", type=float, default=0.25)
    parser.add_argument("--theta", type=float, default=0.99)
    parser.add_argument("--mix", default="read_heavy")
    parser.add_argument("--window-ops", type=int, default=512)
    parser.add_argument("--hot-factor", type=float, default=1.7)
    parser.add_argument("--cold-factor", type=float, default=0.6)
    parser.add_argument("--sustain", type=int, default=1)
    parser.add_argument("--cooldown", type=int, default=1)
    parser.add_argument("--max-shards", type=int, default=16)
    parser.add_argument("--rho", type=float, default=RHO,
                        help="per-shard utilisation for the arrival rate")
    parser.add_argument("--fpp", type=float, default=1e-3)
    parser.add_argument("--config", default="MEM/SSD")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default stdout)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.tuples = min(args.tuples, 32768)
        args.ops = min(args.ops, 8192)
        args.window_ops = min(args.window_ops, 256)
    if args.shards < MIN_INITIAL_SHARDS:
        parser.error(f"--shards must be >= {MIN_INITIAL_SHARDS} "
                     "(the acceptance contract is stated there)")

    relation = synthetic.generate(
        args.tuples, seed=derive_seed(args.seed, "relation")
    )
    column = "pk"
    trace = generate_trace(
        relation, column, mix=args.mix, n_ops=args.ops, skew="hotspot",
        theta=args.theta, phases=args.phases,
        hotspot_width=args.hotspot_width,
        seed=derive_seed(args.seed, "trace"),
    )

    off = _run(relation, column, trace, args, rebalance=False)
    on = _run(relation, column, trace, args, rebalance=True)

    # One arrival rate for both sides, anchored to the *static* run:
    # rho per shard at the initial shard count.
    mean_service = float(off.latency_summary().mean)
    arrival_rate = (
        args.rho * off.initial_shards / mean_service
        if mean_service > 0 else 1.0
    )

    report = {
        "params": {
            "tuples": args.tuples,
            "ops": args.ops,
            "shards": args.shards,
            "phases": args.phases,
            "hotspot_width": args.hotspot_width,
            "theta": args.theta,
            "mix": args.mix,
            "window_ops": args.window_ops,
            "hot_factor": args.hot_factor,
            "cold_factor": args.cold_factor,
            "sustain": args.sustain,
            "cooldown": args.cooldown,
            "max_shards": args.max_shards,
            "rho": args.rho,
            "arrival_rate": arrival_rate,
            "fpp": args.fpp,
            "config": args.config,
            "smoke": args.smoke,
        },
        "off": _side(off, arrival_rate),
        "on": _side(on, arrival_rate),
        "results_identical": on.results == off.results,
    }
    report["gates"] = {
        "split_fired": on.log.n_splits >= 1,
        "queued_p99_improved": (
            report["on"]["queued_latency"]["p99"]
            < report["off"]["queued_latency"]["p99"]
        ),
        "load_balance_improved": (
            report["on"]["mean_load_balance"]
            < report["off"]["mean_load_balance"]
        ),
        "results_identical": report["results_identical"],
    }

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    failures = [name for name, ok in report["gates"].items() if not ok]
    if failures:
        print("\n".join(f"FAIL: gate {name}" for name in failures),
              file=sys.stderr)
        return 1
    print(
        "OK: rebalancing ON ({}->{} shards, {} splits / {} merges) beat "
        "OFF on queued p99 ({:.3g}s vs {:.3g}s) and load balance "
        "({:.2f} vs {:.2f})".format(
            on.initial_shards, on.final_shards,
            on.log.n_splits, on.log.n_merges,
            report["on"]["queued_latency"]["p99"],
            report["off"]["queued_latency"]["p99"],
            report["on"]["mean_load_balance"],
            report["off"]["mean_load_balance"],
        ),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
