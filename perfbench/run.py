"""Serving benchmark of the BF-Tree stack: one workload, one seed, one run.

    python3 perfbench/run.py --workload read_heavy --seed 1 --seconds 10 --trace 0

Run from the repository root.  The run

1. builds the relation and bulk-loads the 4-shard service ``SETUPS``
   times (``setup_s`` is the median), keeping the last service;
2. serves ``WARMUP_REQUESTS`` untimed requests, then a closed loop of
   one client for ``--seconds``: each request is ``REQUEST_OPS`` trace
   operations replayed through the Router, timed on the wall clock and
   checked against an oracle over the relation;
3. scales every wall time to nominal machine speed with the reference
   kernel run after it (``calibrate.py``; raw figures are printed too);
4. prints, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
   with ``--trace 0``, the per-layer metrics (from spans recorded at the
   layer boundaries, see ``tracing.py``) with ``--trace 1``.

Scratch files (durable shards' WAL directories, span dumps) go under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3
SETUP_KERNEL_RUNS = 8  # calibration runs on each side of a set-up
WARMUP_REQUESTS = 16


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import numpy as np

    import calibrate
    import workloads as wl
    from repro.service import Router

    try:
        workload = wl.WORKLOADS[args.workload]
    except KeyError:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    # -- set-up: relation + bulk load + bind, repeated, median reported --
    wal_dir = OUT / f"wal-{args.workload}-{os.getpid()}"
    setup_times: list[float] = []
    setup_slowdowns: list[float] = []
    service = None
    for _ in range(1 if args.trace else SETUPS):
        if service is not None:
            wl.release_service(service, wal_dir)
        around = [calibrate.kernel() for _ in range(SETUP_KERNEL_RUNS)]
        t0 = time.perf_counter()
        relation = wl.build_relation(args.seed)
        service = wl.build_service(relation, workload, wal_dir)
        setup_times.append(time.perf_counter() - t0)
        around += [calibrate.kernel() for _ in range(SETUP_KERNEL_RUNS)]
        setup_slowdowns.append(statistics.median(around) / calibrate.NOMINAL_S)
    assert service is not None

    router = Router(service)
    stream = wl.requests(relation, workload, args.seed)
    tracer = None
    attempted = failed = wrong = 0
    latencies: list[float] = []
    kernel_times: list[float] = []
    try:
        for _ in range(WARMUP_REQUESTS):
            request = next(stream)
            results, _ = router.replay(request.trace)
            wrong += wl.count_wrong(request, results)
        gc.collect()
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        io_pages = io_false = 0
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            request = next(stream)
            n = len(request.trace)
            attempted += n
            if tracer is not None:
                tracer.request += 1
            t0 = time.perf_counter()
            try:
                results, stats = router.replay(request.trace)
            except Exception as exc:  # a failed request counts, then stop
                print(f"request failed: {exc!r}", file=sys.stderr)
                failed += n
                break
            latencies.append(time.perf_counter() - t0)
            kernel_times.append(calibrate.kernel())
            wrong += wl.count_wrong(request, results)
            io_pages += stats.io.total_reads
            io_false += stats.io.false_reads
    finally:
        if tracer is not None:
            tracer.uninstall()
        router.close()
        wl.release_service(service, wal_dir)

    served = attempted - failed
    if not latencies:
        print("error: no request completed", file=sys.stderr)
        return 1
    slowdown = calibrate.slowdowns(latencies, kernel_times)
    scaled = np.asarray(latencies) / slowdown
    busy = float(scaled.sum())
    print(f"workload={args.workload} seed={args.seed} requests="
          f"{len(latencies)} ops/request={wl.REQUEST_OPS} ops={served} "
          f"wrong_ops={wrong} failed_ops={failed} raw: busy_s="
          f"{sum(latencies):.3f} p50_ms={1e3 * np.median(latencies):.3f} "
          f"setup_s={statistics.median(setup_times):.3f}; median slowdown "
          f"{np.median(slowdown):.3f}")

    metrics: dict[str, dict[str, float | str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    if tracer is None:
        put("throughput_ops_s", served / busy, "ops/s")
        put("latency_p50_ms", 1e3 * np.percentile(scaled, 50), "ms")
        put("latency_p90_ms", 1e3 * np.percentile(scaled, 90), "ms")
        put("setup_s", statistics.median(
            [t / f for t, f in zip(setup_times, setup_slowdowns)]), "s")
    else:
        tracer.write(OUT / f"spans-{args.workload}.npz")
        run_slowdown = float(np.median(slowdown))
        for layer, ns in tracer.self_ns.items():
            put(f"{layer}_us_per_op", ns / 1e3 / run_slowdown / served,
                "us/op")
        put("hash_calls_per_op", tracer.calls["hash"] / served, "count/op")
        put("charge_calls_per_op", tracer.calls["charge"] / served,
            "count/op")
        put("wal_fsyncs_per_op", tracer.calls["wal_fsync"] / served,
            "count/op")
        put("pages_read_per_op", io_pages / served, "count/op")
        put("false_reads_per_op", io_false / served, "count/op")
        put("traced_throughput_ops_s", served / busy, "ops/s")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
