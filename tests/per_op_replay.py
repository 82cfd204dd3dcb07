"""Per-op reference replays for one index and for the sharded service.

The Router has a single replay path: ``SerialExecutor``'s batched
``apply_across`` calls.  Tests (and ``benchmarks/bench_scan_batch.py``)
hold it to this loop — the same
trace issued op by op through :class:`ShardedIndex`'s scalar
``search``/``insert``/``delete``/``range_scan`` in trace order.  Each op's
simulated latency is the change in the summed shard clocks across its
call, so a scatter-gather scan's latency is the sum of its legs', as in
the Router.

:func:`apply_per_op` is the same loop for one index's ``apply_many``
ops.  Import them as ``from per_op_replay import replay_per_op``:
pytest puts ``tests/`` on ``sys.path`` (it has no ``__init__.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.results import as_scalar
from repro.harness import ServiceReport
from repro.service import ShardedIndex, ServiceStats
from repro.workloads import OP_DELETE, OP_INSERT, OP_READ, MixedTrace


def apply_per_op(index, ops, stack):
    """Apply ``apply_many``-style ``ops`` to ``index`` one by one through
    its scalar calls: ``(results, latencies)``, each op's latency the
    change in ``stack``'s clock across its call."""
    results, latencies = [], []
    for code, key, arg in ops:
        start = stack.elapsed()
        if code == OP_READ:
            results.append(index.search(key))
        elif code == OP_INSERT:
            results.append(index.insert(key, arg))
        elif code == OP_DELETE:
            results.append(index.delete(key, arg))
        else:
            results.append(index.range_scan(key, arg))
        latencies.append(stack.elapsed() - start)
    return results, latencies


def _shard_clocks(service: ShardedIndex) -> list[float]:
    """Each live shard's simulated clock, in key-range order."""
    return [s.stack.elapsed() for s in service.shards]


def replay_per_op(service: ShardedIndex, trace: MixedTrace,
                  config: str) -> ServiceReport:
    """Bind ``service`` to fresh ``config`` stacks, replay ``trace`` one
    op at a time, unbind, and report like :func:`run_service`."""
    service.bind(config)
    try:
        results = []
        latencies = np.zeros(len(trace), dtype=np.float64)
        t0 = time.perf_counter()
        for i in range(len(trace)):
            key = as_scalar(trace.keys[i])
            code = int(trace.ops[i])
            before = sum(_shard_clocks(service))
            if code == OP_READ:
                results.append(service.search(key))
            elif code == OP_INSERT:
                service.insert(key, int(trace.tids[i]))
                results.append(None)
            elif code == OP_DELETE:
                tid = int(trace.tids[i])
                results.append(service.delete(key, None if tid < 0 else tid))
            else:
                hi = key + int(trace.scan_widths[i]) - 1
                results.append(service.range_scan(key, hi))
            latencies[i] = sum(_shard_clocks(service)) - before
        wall_secs = time.perf_counter() - t0
        shards = service.shards
        stats = ServiceStats(
            per_shard_io=[s.stack.stats.snapshot() for s in shards],
            per_shard_clock=_shard_clocks(service),
            op_codes=trace.ops,
            op_latencies=latencies,
            wall_secs=wall_secs,
            shard_ids=[s.shard_id for s in shards],
            epoch=service.topology_epoch,
        )
    finally:
        service.unbind()
    return ServiceReport(
        n_ops=len(trace),
        n_shards=service.n_shards,
        config=config,
        mix=trace.mix.name,
        skew=trace.skew,
        stats=stats,
        results=results,
    )
