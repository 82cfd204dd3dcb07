"""Simulated time is IOStats priced: the per-op latency identity.

An op's latency is the price of the IOStats it added, so the latencies
one ``apply_many`` call reports must add up to the price of that call's
whole IOStats delta: no charge left unattributed, none counted twice.
The property drives mixed chunks (reads, scans, inserts that split,
chunks of duplicate re-inserts) through plain and counting BF-Trees and
a B+-Tree, cold on MEM/SSD and warm on SSD/SSD.  A Router replay must
report each shard's simulated seconds as that shard's priced IOStats
delta, and its op latencies must add up to the shards' total.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import OP_INSERT, OP_READ, OP_SCAN
from repro.baselines import BPlusTree, BPlusTreeConfig
from repro.core import BFTree, BFTreeConfig
from repro.service import Router, ShardedIndex
from repro.storage import Relation, build_stack
from repro.workloads import generate_trace

N_KEYS = 2048
RTOL = 1e-12
RELATION = Relation({"k": np.arange(0, 2 * N_KEYS, 2, dtype=np.int64)},
                    tuple_size=256)

BUILDERS = {
    "bf": lambda: BFTree.bulk_load(
        RELATION, "k", BFTreeConfig(fpp=1e-3, page_size=512), unique=True),
    "bf_counting": lambda: BFTree.bulk_load(
        RELATION, "k", BFTreeConfig(fpp=1e-3, page_size=1024,
                                    filter_kind="counting"), unique=True),
    "bplus": lambda: BPlusTree.bulk_load(
        RELATION, "k", BPlusTreeConfig(page_size=512), unique=True),
}
SETUPS = [("MEM/SSD", False), ("SSD/SSD", True)]


def _op(kind: str, backend: str, x: int):
    """Op ``kind`` over the relation's keys (even numbers) for draw ``x``."""
    tid = x % N_KEYS
    key = 2 * tid
    if kind == "read":
        return (OP_READ, key + (x % 3 == 0), None)      # a third miss
    if kind == "scan":
        return (OP_SCAN, key, key + x % 60)
    # Inserts: a present key re-inserted where it lives (a duplicate),
    # or an odd key, new to the tree.
    fresh = kind == "insert" and x % 2 == 0
    target = tid if backend == "bplus" else RELATION.page_of(tid)
    return (OP_INSERT, key + fresh, target)


chunks = st.lists(
    st.lists(st.tuples(st.sampled_from(["read", "scan", "insert", "dup"]),
                       st.integers(0, 4 * N_KEYS)),
             min_size=1, max_size=60),
    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(backend=st.sampled_from(sorted(BUILDERS)),
       setup=st.sampled_from(SETUPS), calls=chunks,
       dup_run=st.integers(0, 40))
def test_call_latencies_sum_to_its_priced_delta(backend, setup, calls,
                                                 dup_run):
    tree = BUILDERS[backend]()
    stack = build_stack(setup[0])
    tree.bind(stack, warm=setup[1])
    # One chunk of nothing but duplicate re-inserts of a few keys.
    calls = calls + [[("dup", x % 5) for x in range(dup_run)]]
    for call in calls:
        ops = [_op(kind, backend, x) for kind, x in call]
        if not ops:
            continue
        before = stack.stats.snapshot()
        sink: list[float] = []
        tree.apply_many(ops, latency_sink=sink)
        assert len(sink) == len(ops)
        priced = stack.price(stack.stats.diff(before))
        assert priced > 0.0
        assert math.isclose(math.fsum(sink), priced, rel_tol=RTOL)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["bf", "bplus"]),
       mix=st.sampled_from(["read_heavy", "insert_heavy", "scan_mix"]),
       setup=st.sampled_from(SETUPS), seed=st.integers(0, 2**16))
def test_router_shard_seconds_are_priced_deltas(kind, mix, setup, seed):
    service = ShardedIndex.build(RELATION, "k", n_shards=3, kind=kind,
                                 unique=True, fpp=1e-3)
    service.bind(setup[0], warm=setup[1])
    trace = generate_trace(RELATION, "k", mix=mix, n_ops=300, seed=seed)
    router = Router(service)
    for request in trace.iter_windows(100):
        marks = {shard.shard_id: shard.stack.stats.mark()
                 for shard in service.shards}
        _, stats = router.replay(request)
        assert sorted(stats.shard_ids) == sorted(marks)
        for shard_id, secs in zip(stats.shard_ids, stats.per_shard_clock):
            stack = service.shard_by_id(shard_id).stack
            assert math.isclose(secs, stack.since(marks[shard_id]),
                                rel_tol=RTOL)
        assert math.isclose(math.fsum(stats.op_latencies),
                            math.fsum(stats.per_shard_clock), rel_tol=RTOL)
