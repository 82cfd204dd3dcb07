"""Shard execution: replay each planned shard batch on the calling thread.

The Router plans a trace into per-shard sub-op lists; this module runs
them.  :class:`SerialExecutor` receives ``(stable shard id, sub-ops)``
plans and returns per-op outcome records, replaying the shards one
after another, each as one ordered ``apply_many`` call per
:data:`REPLAY_CHUNK` slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis import sanitize
from repro.api.protocol import OP_INSERT, OP_SCAN, Index, Op
from repro.service.sharded import ShardedIndex


@dataclass(frozen=True)
class SubOp:
    """One shard-local unit of work derived from a trace operation."""

    op_index: int
    code: int
    key: Any
    tid: int = -1
    sub_lo: Any = None
    sub_hi: Any = None


#: One per-op outcome record: (op_index, code, simulated latency, result).
OutRecord = tuple[int, int, float, Any]
#: One planned shard batch: (stable shard id, sub-ops in trace order).
ShardPlan = tuple[int, "list[SubOp]"]
#: Sub-ops per ``apply_many`` call.
REPLAY_CHUNK = 512


class SerialExecutor:
    """Replay shards one after another on the calling thread.

    Each shard's sub-op list becomes one ordered ``apply_many`` call per
    :data:`REPLAY_CHUNK` slice: reads, scans and inserts keep their
    per-shard trace order inside the engine (an op issued after an
    insert observes it, and vice versa), so nothing is buffered between
    calls.
    """

    def __init__(self, service: ShardedIndex) -> None:
        self.service = service

    def run(self, plans: list[ShardPlan]) -> list[list[OutRecord]]:
        """Execute every plan; return outcome lists aligned with ``plans``."""
        return [self.replay_shard(sid, subops) for sid, subops in plans]

    def replay_shard(self, sid: int, subops: list[SubOp]) -> list[OutRecord]:
        """Run one shard's sub-ops in order; return (op_index, code,
        latency, result) records.  An unknown op code raises
        ``ValueError``."""
        service = self.service
        out: list[OutRecord] = []
        for start in range(0, len(subops), REPLAY_CHUNK):
            chunk = subops[start : start + REPLAY_CHUNK]
            shard = service.shard_by_id(sid)
            # A shard retired mid-replay has no owner any more: the
            # service-level call re-routes each op by key (and re-plans
            # each scan leg's sub-window, which still partitions the
            # original window) under the current epoch.  It takes tuple
            # ids; a shard's index takes its native write targets.
            target: ShardedIndex | Index = (
                service if shard is None else shard.index
            )
            ops: list[Op] = []
            inserts = False
            for op in chunk:
                if op.code == OP_INSERT:
                    inserts = True
                    tid = (op.tid if shard is None
                           else shard.index.write_target(op.tid))
                    ops.append((op.code, op.key, tid))
                elif op.code == OP_SCAN:
                    ops.append((op.code, op.sub_lo, op.sub_hi))
                else:
                    ops.append((op.code, op.key, None))
            sink: list[float] = []
            results = target.apply_many(ops, latency_sink=sink)
            for op, latency, result in zip(chunk, sink, results):
                out.append((op.op_index, op.code, latency, result))
            if inserts:
                sanitize.maybe_check(service)
        return out
