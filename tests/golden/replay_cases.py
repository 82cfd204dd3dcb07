"""Golden Router-replay cases: the recorder and the golden test share them.

Each case builds a sharded service, binds it to a storage configuration
and replays a seeded mixed trace through the :class:`Router` in requests
of ``request_ops`` operations.  Every op yields a digest of its result
(tids hashed) and its simulated latency; every request yields each live
shard's IOStats delta and clock delta, keyed by stable shard id.
``record_replay.py`` writes those digests to ``replay.json``;
``tests/test_replay_golden.py`` replays the cases and compares, so the
Router's batched replay is pinned to recorded output, not only to the
per-op loop (whose scalar calls share the batch engines).

The cases cover the ``read_heavy``, ``scan_mix`` and ``insert_heavy``
mixes, a service whose leaves split mid-request, a partitioned
(unordered) column served as one shard, counting filters, a warm buffer
pool, durable shards and ``str`` keys.  Changing a case changes its
``ops_digest``; the golden test then asks for a re-record instead of
reporting per-op mismatches.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from golden.read_cases import _io_list, encode_result
from repro.core import BFTree, BFTreeConfig
from repro.persist import DurableIndex, make_durable_service
from repro.service import Router, ShardedIndex
from repro.service.sharded import Shard
from repro.storage import Relation
from repro.workloads import (
    MIXES,
    OP_INSERT,
    OP_READ,
    MixedTrace,
    generate_trace,
    synthetic,
    tpch,
)

N_TUPLES = 16384
N_DBLP = 4096


@dataclass
class Case:
    name: str
    #: (directory for durable shards) -> fresh, unbound service
    build: Callable[[str], ShardedIndex]
    trace: Callable[[], MixedTrace]
    config: str
    warm: bool
    request_ops: int


_RELATIONS: dict[str, Relation] = {}


def synth() -> Relation:
    if "synth" not in _RELATIONS:
        _RELATIONS["synth"] = synthetic.generate(N_TUPLES, seed=21)
    return _RELATIONS["synth"]


def lineitem() -> Relation:
    if "lineitem" not in _RELATIONS:
        _RELATIONS["lineitem"] = tpch.generate(N_TUPLES, seed=5)
    return _RELATIONS["lineitem"]


def dblp() -> Relation:
    """Sorted ``str`` keys, even numbers only (odd ones are misses)."""
    if "dblp" not in _RELATIONS:
        keys = [f"journals/pvldb/K{2 * i:06d}" for i in range(N_DBLP)]
        _RELATIONS["dblp"] = Relation(
            {"key": np.array(keys, dtype=object)}, tuple_size=256,
            name="dblp",
        )
    return _RELATIONS["dblp"]


def _sharded(relation, column, n_shards, **cfg):
    return lambda _dir: ShardedIndex.build(relation(), column,
                                           n_shards=n_shards, kind="bf",
                                           **cfg)


def _small(fpp: float, page_size: int = 1024, **kw) -> BFTreeConfig:
    """Small index pages: small leaves, so a few novel keys split them."""
    return BFTreeConfig(fpp=fpp, page_size=page_size, **kw)


def _partitioned(_dir: str) -> ShardedIndex:
    """One shard over a BF-Tree on lineitem's partitioned commitdate
    (``ShardedIndex.build`` only slices ordered columns)."""
    rel = lineitem()
    tree = BFTree.bulk_load(rel, "commitdate", BFTreeConfig(fpp=1e-3),
                            ordered=False)
    return ShardedIndex(rel, "commitdate",
                        [Shard(index=tree, lo_key=None, hi_key=None)],
                        kind="bf", unique=False, donor_height=tree.height)


def _durable(directory: str) -> ShardedIndex:
    return make_durable_service(synth(), "pk", directory, n_shards=3,
                                kind="bf", unique=True, sync_every=8,
                                config=_small(1e-3))


def _mix_trace(relation, column, mix, n_ops, seed, **kw):
    return lambda: generate_trace(relation(), column, mix=mix, n_ops=n_ops,
                                  seed=seed, **kw)


def _reads_and_scans(relation, column, n_ops, seed):
    """A ``scan_mix`` trace with its inserts turned into reads."""
    def make() -> MixedTrace:
        trace = generate_trace(relation(), column, mix="scan_mix",
                               n_ops=n_ops, seed=seed, hit_rate=0.8)
        ops = trace.ops.copy()
        ops[ops == OP_INSERT] = OP_READ
        tids = np.where(ops == OP_READ, -1, trace.tids)
        return MixedTrace(ops=ops, keys=trace.keys, tids=tids,
                          scan_widths=trace.scan_widths, mix=trace.mix,
                          skew=trace.skew, theta=trace.theta,
                          seed=trace.seed)
    return make


def _novel_trace(relation, column, n_ops, seed, novel_share,
                 str_keys=False):
    """Reads (hits, misses, novel keys) and inserts (re-index a present
    key at its tuple, or index a novel key past the domain on the last
    page, where it routes — so the last leaves fill up and split)."""
    def make() -> MixedTrace:
        rel = relation()
        values = rel.columns[column]
        n = len(values)
        rng = np.random.default_rng(seed)
        hi = int(np.asarray(values).max()) + 1 if not str_keys else 0

        def novel_key(i):
            return f"journals/vldbj/K{i:06d}" if str_keys else hi + i

        def miss_key(tid):
            # str: an odd, in-domain absent key; int: past the domain.
            return (f"journals/pvldb/K{2 * tid + 1:06d}" if str_keys
                    else hi + 10 * n + tid)

        novel = 0
        ops, keys, tids = [], [], []
        for _ in range(n_ops):
            u = rng.random()
            tid = int(rng.integers(0, n))
            if u < novel_share:
                ops.append(OP_INSERT)
                keys.append(novel_key(novel))
                tids.append((rel.npages - 1) * rel.tuples_per_page)
                novel += 1
                continue
            if u < novel_share + 0.1:
                ops.append(OP_INSERT)
                keys.append(values[tid])
                tids.append(tid)
                continue
            ops.append(OP_READ)
            tids.append(-1)
            v = rng.random()
            if v < 0.7:
                keys.append(values[tid])
            elif v < 0.85:
                keys.append(miss_key(tid))
            else:
                keys.append(novel_key(int(rng.integers(0, novel + 8))))
        m = len(ops)
        return MixedTrace(
            ops=np.asarray(ops, dtype=np.int8),
            keys=np.array(keys, dtype=object if str_keys else np.int64),
            tids=np.asarray(tids, dtype=np.int64),
            scan_widths=np.zeros(m, dtype=np.int64),
            mix=MIXES["balanced"], skew="uniform", theta=0.99, seed=seed,
        )
    return make


def cases() -> list[Case]:
    return [
        Case("read_heavy", _sharded(synth, "pk", 4, unique=True,
                                    config=_small(0.02)),
             _mix_trace(synth, "pk", "read_heavy", 1024, seed=1),
             "MEM/SSD", False, 128),
        Case("scan_mix", _sharded(synth, "pk", 4, unique=True,
                                  config=_small(0.02)),
             _mix_trace(synth, "pk", "scan_mix", 1024, seed=2),
             "MEM/SSD", False, 128),
        Case("insert_heavy", _sharded(synth, "pk", 2, unique=True,
                                      config=_small(1e-3)),
             _mix_trace(synth, "pk", "insert_heavy", 3000, seed=3,
                        hit_rate=0.7),
             "SSD/HDD", False, 1500),
        Case("splits_mid_request",
             _sharded(synth, "pk", 2, unique=True,
                      config=_small(1e-3, page_size=512)),
             _novel_trace(synth, "pk", 1600, seed=4, novel_share=0.4),
             "MEM/SSD", False, 300),
        Case("partitioned_commitdate", _partitioned,
             _reads_and_scans(lineitem, "commitdate", 800, seed=5),
             "SSD/SSD", False, 400),
        Case("counting_filters",
             _sharded(synth, "pk", 2, unique=True,
                      config=_small(1e-3, filter_kind="counting")),
             _novel_trace(synth, "pk", 1200, seed=6, novel_share=0.3),
             "SSD/SSD", False, 256),
        Case("warm_pool", _sharded(synth, "pk", 3, unique=True,
                                   config=_small(1e-3, page_size=512)),
             _novel_trace(synth, "pk", 1200, seed=7, novel_share=0.3),
             "MEM/SSD", True, 200),
        Case("durable", _durable,
             _mix_trace(synth, "pk", "insert_heavy", 768, seed=8),
             "MEM/SSD", False, 128),
        Case("dblp_str_keys", _sharded(dblp, "key", 2, unique=True,
                                       config=_small(1e-3)),
             _novel_trace(dblp, "key", 1200, seed=9, novel_share=0.35,
                          str_keys=True),
             "MEM/SSD", False, 200),
    ]


def ops_digest(case: Case) -> str:
    trace = case.trace()
    h = hashlib.sha1(repr((case.config, case.warm,
                           case.request_ops)).encode())
    for arr in (trace.ops, trace.tids, trace.scan_widths):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(trace.keys.tolist()).encode())
    return h.hexdigest()[:16]


def run_case(case: Case) -> dict:
    """Replay ``case`` through the Router, one request at a time."""
    trace = case.trace()
    results: list = []
    latency: list[float] = []
    io: list = []
    clock: list = []
    with tempfile.TemporaryDirectory() as directory:
        service = case.build(directory)
        service.bind(case.config, warm=case.warm)
        router = Router(service)
        try:
            for request in trace.iter_windows(case.request_ops):
                got, stats = router.replay(request)
                results += [None if r is None else encode_result(r)
                            for r in got]
                # 12 significant digits: well inside the test's rtol.
                latency += [float(f"{x:.12g}")
                            for x in stats.op_latencies.tolist()]
                io.append({str(sid): _io_list(shard_io) for sid, shard_io
                           in zip(stats.shard_ids, stats.per_shard_io)})
                clock.append({str(sid): float(f"{c:.12g}") for sid, c
                              in zip(stats.shard_ids,
                                     stats.per_shard_clock)})
        finally:
            service.unbind()
            for shard in service.shards:
                if isinstance(shard.index, DurableIndex):
                    shard.index.close()
    return {"ops_digest": ops_digest(case), "results": results,
            "latency": latency, "io": io, "clock": clock}
