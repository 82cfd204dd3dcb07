"""Shard execution: replay the planned shard batches on the calling thread.

The Router plans a trace into one :class:`ShardBatch` per shard: parallel
columns of trace op indices, op codes, keys and third fields, in trace
order.  :class:`SerialExecutor` receives ``(stable shard id, batch)``
plans and replays them in rounds of :data:`REPLAY_CHUNK` ops per shard:
each round is one :meth:`~repro.api.protocol.IndexBackend.apply_across`
call per run of shards whose indexes share a class
(:func:`~repro.api.protocol.apply_grouped`), which the BF-Tree answers
with one engine pass over every shard's slice (one hash call, one filter
gather, one page scan), the durable wrapper by framing every shard's
writes into that shard's WAL and making one such pass over the inner
trees, and every other backend with one ordered ``apply_many`` call per
shard.  An insert's or a targeted
delete's tuple id is mapped through the shard index's ``write_target``
on the way in (a page id for BF-Tree shards, so a counting filter
decrements in place), and each round that inserts or deletes ends with
one ``sanitize.maybe_check`` of the service.  It returns one ``(results,
latencies)`` pair of lists per shard, aligned with the batch's columns;
no per-op record is built on either side.  Topology changes are made
between replays, so every planned shard id is still in the routing
table at dispatch; one that is not raises ``RuntimeError`` before any
shard is replayed.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.analysis import sanitize
from repro.api.protocol import (
    OP_DELETE,
    OP_INSERT,
    OP_SCAN,
    Index,
    Op,
    apply_grouped,
)
from repro.service.sharded import ShardedIndex


class ShardBatch(NamedTuple):
    """One shard's share of a trace, as parallel columns in trace order.

    A point op is ``(code, key, tid)`` with ``tid`` None for reads and
    untargeted deletes; a scan leg carries its shard's sub-window as
    ``(OP_SCAN, sub_lo, sub_hi)``.
    """

    #: Trace op index of each entry (an op appears at most once).
    ops: list[int]
    codes: list[int]
    #: Point key, or a scan leg's ``sub_lo``.
    keys: list[Any]
    #: An insert's or targeted delete's tuple id, None for a read or an
    #: untargeted delete, a scan leg's ``sub_hi``.
    args: list[Any]


#: Ops per shard per replay round.
REPLAY_CHUNK = 512


class SerialExecutor:
    """Replay every shard's batch on the calling thread, a round of
    :data:`REPLAY_CHUNK` ops per shard at a time.

    Inside a round each shard's slice is one ordered request: reads,
    scans, inserts and deletes keep their per-shard trace order inside
    the engine (an op issued after a write observes it, and vice versa),
    so nothing is buffered between rounds.  Shards share no state, so a
    round answers as if each shard's slice ran alone.
    """

    def __init__(self, service: ShardedIndex) -> None:
        self.service = service

    def run(self, plans: list[tuple[int, ShardBatch]]
            ) -> list[tuple[list[Any], list[float]]]:
        """Execute every plan; return ``(results, latencies)`` per plan,
        aligned with ``plans``.

        A shard id missing from the routing table raises
        ``RuntimeError`` before any shard is replayed (topology changes
        belong between replays); an unknown op code raises
        ``ValueError``.  An insert's or a delete's tuple id becomes its
        shard index's write target.
        """
        service = self.service
        indexes: list[Index] = []
        for sid, _ in plans:
            shard = service.shard_by_id(sid)
            if shard is None:
                raise RuntimeError(
                    f"shard id {sid} left the routing table between plan "
                    f"and replay; change the topology between replays"
                )
            indexes.append(shard.index)
        outcomes: list[tuple[list[Any], list[float]]] = [
            ([], []) for _ in plans]
        longest = max((len(batch.codes) for _, batch in plans), default=0)
        for start in range(0, longest, REPLAY_CHUNK):
            stop = start + REPLAY_CHUNK
            requests: list[tuple[Index, list[Op], list[float]]] = []
            owners: list[int] = []
            writes = False
            for p, (index, (_, batch)) in enumerate(zip(indexes, plans)):
                codes = batch.codes[start:stop]
                if not codes:
                    continue
                args = batch.args[start:stop]
                if OP_INSERT in codes or OP_DELETE in codes:
                    writes = True
                    write_target = index.write_target
                    args = [arg if arg is None or code == OP_SCAN
                            else write_target(arg)
                            for code, arg in zip(codes, args)]
                requests.append(
                    (index, list(zip(codes, batch.keys[start:stop], args)),
                     []))
                owners.append(p)
            for p, results, (_, _, sink) in zip(
                    owners, apply_grouped(requests), requests):
                outcomes[p][0].extend(results)
                outcomes[p][1].extend(sink)
            if writes:
                sanitize.maybe_check(service)
        return outcomes
