"""Router: splits mixed-operation batches per shard and dispatches them.

The router turns a :class:`~repro.workloads.mixed.MixedTrace` into one
:class:`~repro.service.executor.ShardBatch` per shard and hands them to
:class:`~repro.service.executor.SerialExecutor`, which replays the
batches on the calling thread.  The trace stays columnar from end to
end: no per-op object is built between the trace's arrays and the
engine's op triples, or between the engine's result lists and the
merged replay.

* point reads, inserts and deletes are routed by key and grouped per
  shard by one stable ``argsort`` of their shard ordinals, so each
  batch holds slices of op indices, codes, keys and third fields (an
  insert's or a targeted delete's tuple id, None for a read or an
  untargeted delete) in trace order;
* a scan whose window spans multiple shards is split into per-shard
  legs (scatter-gather, planned vectorized via ``scan_plan_many``) that
  one ``(shard, op index)`` ``lexsort`` splices in among the point ops;
  its latency is the *sum* of its legs' simulated time, and its result
  merges the legs' counts;
* each shard's batch is one ordered request per replay chunk — reads,
  scans, inserts and deletes together, in trace order — and every
  shard's request of a chunk goes to one ``apply_across`` call, which
  BF-Tree shards, durable ones included, answer in one engine pass.  The engine answers each
  shard's ops as if applied one by one, so an operation issued after a
  write observes it (read-your-writes), and the per-op latency sink recovers
  each op's simulated latency for the percentile report.  The merge
  scatters each shard's results and latencies back by op index.

The Router is the service's only batch path, for writes as for
reads: every replay is bit-identical to the same ops issued one by one
through :class:`~repro.service.sharded.ShardedIndex` in trace order
(results and IOStats; per-op latencies and per-shard simulated seconds
are those counts priced, up to float rounding) — the tests hold the
Router to that per-op loop.

**Topology discipline.**  Routing goes through the service's
:class:`~repro.service.routing.RoutingTable`; plan-time shard ordinals
are resolved to *stable shard ids* before dispatch, and the executor
resolves each id back to its shard through the table (reprolint rule
P4 forbids retaining ``shards[i]`` objects here).  Nothing is buffered
between replays, so a topology change (``split_shard`` /
``merge_shards``) has nothing of the Router's to flush.  Topology
changes are a control-plane action: make them between replay calls, as
the elastic control loop does.  A planned shard id that has left the
table by dispatch raises ``RuntimeError``.

Per-shard operation order always follows trace order.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.api.results import RangeScanResult, as_scalars
from repro.service.executor import SerialExecutor, ShardBatch
from repro.service.sharded import ShardedIndex
from repro.service.stats import ServiceStats
from repro.storage.iostats import IOStats
from repro.workloads.mixed import OP_DELETE, OP_INSERT, OP_SCAN, MixedTrace


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
    def plan(self, trace: MixedTrace) -> list[ShardBatch]:
        """Split the trace into one column batch per shard (trace order
        kept within each).

        List positions are the *current epoch's* shard ordinals; replay
        resolves them to stable ids immediately, before any dispatch.
        Point ops are grouped by shard with one stable ``argsort`` of
        their routed ordinals.  Scan legs are planned for the whole
        trace in one vectorized pass (both window endpoints routed
        batch-wise); when there are any, one ``(shard, op index)``
        ``lexsort`` splices them in among the point ops.
        """
        service = self.service
        codes = trace.ops
        shard = service.route(trace.keys)
        # An insert's tuple id, and a delete's unless it is -1
        # (untargeted): both become the shard's write target.
        tid_args = np.full(len(trace), None, dtype=object)
        writes = np.flatnonzero((codes == OP_INSERT) | (
            (codes == OP_DELETE) & (trace.tids >= 0)))
        tid_args[writes] = trace.tids[writes].tolist()
        scan_idx = np.flatnonzero(codes == OP_SCAN)
        if len(scan_idx) == 0:
            ops = np.argsort(shard, kind="stable")
            keys = trace.keys[ops].tolist()
            args = tid_args[ops].tolist()
        else:
            los = as_scalars(trace.keys[scan_idx].tolist())
            widths = trace.scan_widths[scan_idx].tolist()
            leg_ops: list[int] = []
            leg_shards: list[int] = []
            leg_los: list[Any] = []
            leg_his: list[Any] = []
            for i, legs in zip(scan_idx.tolist(), service.scan_plan_many(
                    [(lo, lo + w - 1) for lo, w in zip(los, widths)])):
                for s, sub_lo, sub_hi in legs:
                    leg_ops.append(i)
                    leg_shards.append(s)
                    leg_los.append(sub_lo)
                    leg_his.append(sub_hi)
            point = np.flatnonzero(codes != OP_SCAN)
            ops = np.concatenate([point, np.asarray(leg_ops, dtype=np.int64)])
            shard = np.concatenate(
                [shard[point], np.asarray(leg_shards, dtype=np.int64)])
            order = np.lexsort((ops, shard))
            ops = ops[order]
            take = order.tolist()
            point_keys = trace.keys[point].tolist() + leg_los
            point_args = tid_args[point].tolist() + leg_his
            keys = [point_keys[k] for k in take]
            args = [point_args[k] for k in take]
        keys = as_scalars(keys)
        cuts = [0, *np.bincount(shard, minlength=len(service.shards))
                .cumsum().tolist()]
        op_list = ops.tolist()
        code_list = codes[ops].tolist()
        return [ShardBatch(op_list[a:b], code_list[a:b], keys[a:b],
                           args[a:b])
                for a, b in zip(cuts, cuts[1:])]

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(self, trace: MixedTrace
               ) -> tuple[list[Any], ServiceStats]:
        """Replay ``trace`` against the bound service.

        Returns (per-op results aligned with the trace, ServiceStats).
        Reads yield :class:`SearchResult`, scans a merged
        :class:`RangeScanResult`, inserts ``None``, deletes a
        :class:`DeleteOutcome`.
        """
        service = self.service
        if any(not shard.bound for shard in service.shards):
            raise RuntimeError("service is not bound; call bind() first")
        batches = self.plan(trace)
        # Resolve this epoch's ordinals to stable ids before dispatch.
        table = service.table
        plans = [(table.id_at(s), batch) for s, batch in enumerate(batches)]
        before: list[IOStats] = []
        for shard in service.shards:
            assert shard.stack is not None
            before.append(shard.stack.stats.snapshot())
        t0 = time.perf_counter()
        outcomes = self.executor.run(plans)
        wall_secs = time.perf_counter() - t0

        # An op appears at most once per shard, so one indexed add per
        # shard, in plan order, sums a scan's leg latencies shard by shard.
        results: list[Any] = [None] * len(trace)
        latencies = np.zeros(len(trace), dtype=np.float64)
        scans: dict[int, RangeScanResult] = {}
        for batch, (shard_results, shard_latencies) in zip(batches, outcomes):
            latencies[batch.ops] += shard_latencies
            for i, result in zip(batch.ops, shard_results):
                results[i] = result
            if OP_SCAN in batch.codes:
                for i, code, leg in zip(batch.ops, batch.codes,
                                        shard_results):
                    if code == OP_SCAN:
                        merged = scans.get(i)
                        if merged is None:
                            scans[i] = merged = RangeScanResult(
                                matches=0, pages_read=0, leaves_visited=0
                            )
                        merged.matches += leg.matches
                        merged.pages_read += leg.pages_read
                        merged.leaves_visited += leg.leaves_visited
        for i, merged in scans.items():
            results[i] = merged

        per_shard_io: list[IOStats] = []
        per_shard_clock: list[float] = []
        shard_ids: list[int] = []
        for shard, io0 in zip(service.shards, before):
            assert shard.stack is not None
            io = shard.stack.stats.diff(io0)
            per_shard_io.append(io)
            per_shard_clock.append(shard.stack.price(io))
            shard_ids.append(shard.shard_id)
        stats = ServiceStats(
            per_shard_io=per_shard_io,
            per_shard_clock=per_shard_clock,
            op_codes=trace.ops,
            op_latencies=latencies,
            wall_secs=wall_secs,
            shard_ids=shard_ids,
            epoch=service.topology_epoch,
        )
        return results, stats
