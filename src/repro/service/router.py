"""Router: splits mixed-operation batches per shard and dispatches them.

The router turns a :class:`~repro.workloads.mixed.MixedTrace` into
per-shard work lists and hands them to
:class:`~repro.service.executor.SerialExecutor`, which replays each list
on the calling thread:

* point reads and inserts are routed by key; a scan whose window spans
  multiple shards is split into per-shard legs (scatter-gather, planned
  vectorized via ``scan_plan_many``); its latency is the *sum* of its
  legs' simulated time, and its result merges the legs' counts;
* each shard's list goes to its index as one ordered ``apply_many``
  call per chunk — reads, scans and inserts together, in trace order.
  The engine answers them as if applied one by one, so an operation
  issued after an insert observes it (read-your-writes), and the
  per-op latency sink recovers each op's simulated latency for the
  percentile report.

Every replay is bit-identical to the same ops issued one by one
through :class:`~repro.service.sharded.ShardedIndex` in trace order
(results and IOStats; per-op latencies and clocks up to float
summation order) — the tests hold the Router to that per-op loop.

**Topology discipline.**  Routing goes through the service's
:class:`~repro.service.routing.RoutingTable`; plan-time shard ordinals
are resolved to *stable shard ids* before dispatch, and each chunk
re-resolves its shard id through the table (reprolint rule P4 forbids
retaining ``shards[i]`` objects here).  Nothing is buffered between
engine calls, so a live topology change (``split_shard`` /
``merge_shards``) has nothing of the Router's to flush.  Should a shard
id vanish (retired mid-replay), its chunks fall back to the
service-level ``apply_many``, which re-routes each op by key under the
new epoch.

Per-shard operation order always follows trace order.  Live topology
changes remain a control-plane action: trigger them between replay
calls (as the elastic control loop does) — not concurrently from
another thread.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.api.results import RangeScanResult, as_scalar
from repro.service.executor import SerialExecutor, SubOp
from repro.service.sharded import ShardedIndex
from repro.service.stats import ServiceStats
from repro.storage.iostats import IOStats
from repro.workloads.mixed import OP_INSERT, OP_READ, OP_SCAN, MixedTrace


class Router:
    """Dispatches trace operations to the shards of a :class:`ShardedIndex`."""

    def __init__(self, service: ShardedIndex) -> None:
        self.service = service
        self.executor = SerialExecutor(service)

    def close(self) -> None:
        """No-op: the Router holds no resources.  Kept for callers that
        release their Router when done (``perfbench/run.py``)."""

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, trace: MixedTrace) -> list[list[SubOp]]:
        """Split the trace into per-shard sub-op lists (trace order kept).

        List positions are the *current epoch's* shard ordinals; replay
        resolves them to stable ids immediately, before any dispatch.
        """
        per_shard: list[list[SubOp]] = [[] for _ in self.service.shards]
        assign = self.service.route(trace.keys)
        keys = [as_scalar(k) for k in trace.keys.tolist()]
        # Scan legs are planned for the whole trace in one vectorized
        # pass (both window endpoints routed batch-wise), then spliced
        # back at each scan's trace position.
        scan_idx = np.nonzero(trace.ops == OP_SCAN)[0]
        scan_legs: dict[int, list[tuple[int, Any, Any]]] = {}
        if len(scan_idx):
            windows = [
                (keys[i], keys[i] + int(trace.scan_widths[i]) - 1)
                for i in scan_idx
            ]
            for i, legs in zip(scan_idx.tolist(),
                               self.service.scan_plan_many(windows)):
                scan_legs[i] = legs
        for i in range(len(trace)):
            code = int(trace.ops[i])
            key = keys[i]
            if code == OP_READ:
                per_shard[assign[i]].append(SubOp(i, code, key))
            elif code == OP_INSERT:
                per_shard[assign[i]].append(
                    SubOp(i, code, key, tid=int(trace.tids[i]))
                )
            else:  # OP_SCAN: one leg per overlapping shard
                for s, sub_lo, sub_hi in scan_legs[i]:
                    per_shard[s].append(
                        SubOp(i, code, key, sub_lo=sub_lo, sub_hi=sub_hi)
                    )
        return per_shard

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self, trace: MixedTrace
               ) -> tuple[list[Any], ServiceStats]:
        """Replay ``trace`` against the bound service.

        Returns (per-op results aligned with the trace, ServiceStats).
        Reads yield :class:`SearchResult`, scans a merged
        :class:`RangeScanResult`, inserts ``None``.
        """
        service = self.service
        if any(not shard.bound for shard in service.shards):
            raise RuntimeError("service is not bound; call bind() first")
        per_shard = self.plan(trace)
        # Resolve this epoch's ordinals to stable ids before dispatch;
        # snapshot per-shard counters by id so the books stay right even
        # if the topology changes under us mid-replay.
        table = service.table
        sids = [table.id_at(s) for s in range(len(per_shard))]
        before: dict[int, tuple[IOStats, float]] = {}
        for shard in service.shards:
            assert shard.stack is not None
            before[shard.shard_id] = (
                shard.stack.stats.snapshot(), shard.stack.clock.now()
            )
        retired_io0 = service.retired_io.snapshot()
        retired_clock0 = service.retired_clock
        t0 = time.perf_counter()
        outcomes = self.executor.run(list(zip(sids, per_shard)))
        wall_secs = time.perf_counter() - t0

        results: list[Any] = [None] * len(trace)
        latencies = np.zeros(len(trace), dtype=np.float64)
        for shard_outcome in outcomes:
            for op_index, code, latency, result in shard_outcome:
                latencies[op_index] += latency
                if code == OP_SCAN:
                    merged = results[op_index]
                    if merged is None:
                        merged = RangeScanResult(
                            matches=0, pages_read=0, leaves_visited=0
                        )
                        results[op_index] = merged
                    merged.matches += result.matches
                    merged.pages_read += result.pages_read
                    merged.leaves_visited += result.leaves_visited
                else:
                    results[op_index] = result

        per_shard_io: list[IOStats] = []
        per_shard_clock: list[float] = []
        shard_ids: list[int] = []
        live_ids = set()
        for shard in service.shards:
            assert shard.stack is not None
            io0, c0 = before.get(shard.shard_id, (IOStats(), 0.0))
            per_shard_io.append(shard.stack.stats.diff(io0))
            per_shard_clock.append(shard.stack.clock.now() - c0)
            shard_ids.append(shard.shard_id)
            live_ids.add(shard.shard_id)
        # Work retired mid-replay (a shard split/merged away during
        # the replay): the service accumulators grew by those
        # shards' *lifetime* counters; subtract their replay-start
        # snapshots to keep only this replay's share.
        retired_io = service.retired_io.diff(retired_io0)
        retired_clock = service.retired_clock - retired_clock0
        for sid, (io0, c0) in before.items():
            if sid not in live_ids:
                retired_io = retired_io.diff(io0)
                retired_clock -= c0
        stats = ServiceStats(
            per_shard_io=per_shard_io,
            per_shard_clock=per_shard_clock,
            op_codes=trace.ops,
            op_latencies=latencies,
            wall_secs=wall_secs,
            shard_ids=shard_ids,
            retired_io=retired_io,
            retired_clock=retired_clock,
            epoch=service.topology_epoch,
        )
        return results, stats
