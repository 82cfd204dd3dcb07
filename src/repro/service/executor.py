"""Shard execution: replay each planned shard batch on the calling thread.

The Router plans a trace into one :class:`ShardBatch` per shard: parallel
columns of trace op indices, op codes, keys and third fields, in trace
order.  :class:`SerialExecutor` receives ``(stable shard id, batch)``
plans and replays the shards one after another, each as one ordered
``apply_many`` call per :data:`REPLAY_CHUNK` slice of its columns on
that shard's own index.  It returns one ``(results, latencies)`` pair
of lists per shard, aligned with the batch's columns; no per-op record
is built on either side.  Topology changes are made between replays,
so every planned shard id is still in the routing table at dispatch;
one that is not raises ``RuntimeError``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.analysis import sanitize
from repro.api.protocol import OP_INSERT
from repro.service.sharded import ShardedIndex


class ShardBatch(NamedTuple):
    """One shard's share of a trace, as parallel columns in trace order.

    A point op is ``(code, key, tid)`` with ``tid`` None for reads; a
    scan leg carries its shard's sub-window as ``(OP_SCAN, sub_lo,
    sub_hi)``.
    """

    #: Trace op index of each entry (an op appears at most once).
    ops: list[int]
    codes: list[int]
    #: Point key, or a scan leg's ``sub_lo``.
    keys: list[Any]
    #: An insert's tuple id, None for a read, a scan leg's ``sub_hi``.
    args: list[Any]


#: Ops per ``apply_many`` call.
REPLAY_CHUNK = 512


class SerialExecutor:
    """Replay shards one after another on the calling thread.

    Each shard's batch becomes one ordered ``apply_many`` call per
    :data:`REPLAY_CHUNK` slice: reads, scans and inserts keep their
    per-shard trace order inside the engine (an op issued after an
    insert observes it, and vice versa), so nothing is buffered between
    calls.
    """

    def __init__(self, service: ShardedIndex) -> None:
        self.service = service

    def run(self, plans: list[tuple[int, ShardBatch]]
            ) -> list[tuple[list[Any], list[float]]]:
        """Execute every plan; return ``(results, latencies)`` per plan,
        aligned with ``plans``."""
        return [self.replay_shard(sid, batch) for sid, batch in plans]

    def replay_shard(self, sid: int, batch: ShardBatch
                     ) -> tuple[list[Any], list[float]]:
        """Run one shard's batch in order; return its per-op results and
        simulated latencies.  An unknown op code raises ``ValueError``;
        a shard id missing from the routing table raises
        ``RuntimeError`` (topology changes belong between replays)."""
        service = self.service
        shard = service.shard_by_id(sid)
        if shard is None:
            raise RuntimeError(
                f"shard id {sid} left the routing table between plan and "
                f"replay; change the topology between replays"
            )
        index = shard.index
        codes, keys, args = batch.codes, batch.keys, batch.args
        results: list[Any] = []
        latencies: list[float] = []
        for start in range(0, len(codes), REPLAY_CHUNK):
            stop = start + REPLAY_CHUNK
            chunk_codes = codes[start:stop]
            chunk_args = args[start:stop]
            inserts = OP_INSERT in chunk_codes
            if inserts:
                write_target = index.write_target
                chunk_args = [write_target(arg) if code == OP_INSERT
                              else arg
                              for code, arg in zip(chunk_codes, chunk_args)]
            sink: list[float] = []
            results += index.apply_many(
                list(zip(chunk_codes, keys[start:stop], chunk_args)),
                latency_sink=sink,
            )
            latencies += sink
            if inserts:
                sanitize.maybe_check(service)
        return results, latencies
