"""The columnar request path from a trace to the BF-Tree engine.

``Router.plan`` splits a trace into one column batch per shard with no
per-op object: every point op lands once, on the shard its key routes
to; every scan leg lands on its own shard with its ``scan_plan``
sub-window; and each shard's ops stay in trace order.  The engine's
batch calls take NumPy scalar and 0-d array keys as if they were native
(same results, IOStats and latencies) and store only native keys in
their leaves.  A tested read whose filters match no page costs exactly
nothing at fetch time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import (
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    SearchResult,
    normalize_scan_windows,
)
from repro.core import BFTree, BFTreeConfig
from repro.core.bloom import page_to_rows
from repro.service import Router, ShardBatch, ShardedIndex
from repro.storage import Relation, build_stack
from repro.workloads import MixedTrace
from repro.workloads.mixed import MIXES

N_INT = 4096
N_STR = 2048


def _str_key(x):
    return f"journals/pvldb/K{x:06d}"


def _int_relation():
    return Relation({"k": np.arange(0, 2 * N_INT, 2, dtype=np.int64)},
                    tuple_size=256)


def _str_relation():
    keys = np.array([_str_key(2 * i) for i in range(N_STR)], dtype=str)
    return Relation({"k": keys}, tuple_size=256)


# Small index pages give each service several leaves per shard.
SERVICES = {
    name: ShardedIndex.build(rel, "k", n_shards=4, kind="bf",
                             config=BFTreeConfig(fpp=1e-3, page_size=512),
                             unique=True)
    for name, rel in (("int", _int_relation()), ("str", _str_relation()))
}


def _trace(ops, keys, tids, widths, key_dtype):
    return MixedTrace(
        ops=np.asarray(ops, dtype=np.int8),
        keys=np.array(keys, dtype=key_dtype),
        tids=np.asarray(tids, dtype=np.int64),
        scan_widths=np.asarray(widths, dtype=np.int64),
        mix=MIXES["scan_mix"], skew="uniform", theta=0.99, seed=0,
    )


def _check_plan(service, trace):
    batches = Router(service).plan(trace)
    assert len(batches) == len(service.shards)
    routed = service.route(trace.keys).tolist()
    keys = trace.keys.tolist()
    points, legs = [], {}
    for s, batch in enumerate(batches):
        assert isinstance(batch, ShardBatch)
        assert len(set(map(len, batch))) == 1
        # Trace order, and each op at most once per shard.
        assert batch.ops == sorted(set(batch.ops))
        for i, code, key, arg in zip(*batch):
            assert code == trace.ops[i]
            if code == OP_SCAN:
                legs.setdefault(i, []).append((s, key, arg))
                continue
            points.append(i)
            assert s == routed[i]
            assert key == keys[i] and type(key) in (int, str)
            if code == OP_INSERT:
                assert arg == trace.tids[i] and type(arg) is int
            else:
                assert arg is None
    assert sorted(points) == np.flatnonzero(trace.ops != OP_SCAN).tolist()
    for i in np.flatnonzero(trace.ops == OP_SCAN).tolist():
        lo = keys[i]
        want = service.scan_plan(lo, lo + int(trace.scan_widths[i]) - 1)
        assert legs.pop(i, []) == want
    assert not legs


int_ops = st.lists(
    st.tuples(st.sampled_from([OP_READ, OP_READ, OP_INSERT, OP_SCAN]),
              st.integers(min_value=-10, max_value=2 * N_INT + 10),
              st.integers(min_value=1, max_value=3 * N_INT // 2)),
    max_size=80,
)
str_ops = st.lists(
    st.tuples(st.sampled_from([OP_READ, OP_READ, OP_INSERT]),
              st.integers(min_value=0, max_value=2 * N_STR + 10)),
    max_size=80,
)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_services_have_several_shards():
    assert all(len(s.shards) == 4 for s in SERVICES.values())
    assert len(SERVICES["int"].scan_plan(100, 6099)) > 2


@given(drawn=int_ops)
@example(drawn=[(OP_INSERT, 7000, 1), (OP_SCAN, 100, 6000),
                (OP_READ, 5000, 1), (OP_SCAN, 3000, 2000),
                (OP_READ, 20, 1)])
@SETTINGS
def test_plan_splits_int_trace_with_spanning_scans(drawn):
    ops = [code for code, _, _ in drawn]
    keys = [key for _, key, _ in drawn]
    tids = [key % N_INT if code == OP_INSERT else -1
            for code, key, _ in drawn]
    widths = [w if code == OP_SCAN else 0 for code, _, w in drawn]
    _check_plan(SERVICES["int"], _trace(ops, keys, tids, widths, np.int64))


@given(drawn=str_ops)
@example(drawn=[(OP_READ, 4000), (OP_INSERT, 10), (OP_READ, 11),
                (OP_INSERT, 3001), (OP_READ, 4000)])
@SETTINGS
def test_plan_splits_unicode_key_trace(drawn):
    ops = [code for code, _ in drawn]
    keys = [_str_key(x) for _, x in drawn]
    tids = [x % N_STR if code == OP_INSERT else -1 for code, x in drawn]
    _check_plan(SERVICES["str"],
                _trace(ops, keys, tids, [0] * len(ops), str))


# ---------------------------------------------------------------------------
# NumPy scalar keys through the engine's batch calls
# ---------------------------------------------------------------------------

def _int_world():
    rel = _int_relation()
    present = [int(k) for k in rel.columns["k"][::97]]
    ops = []
    for n, key in enumerate(present):
        ops.append((OP_READ, key, None))
        ops.append((OP_READ, key + 1, None))             # absent, in range
        ops.append((OP_INSERT, key, rel.page_of(key // 2)))
        ops.append((OP_SCAN, key, key + 40 + n))
    last = rel.npages - 1
    ops += [(OP_INSERT, 2 * N_INT + 2 * x, last) for x in range(60)]
    ops += [(OP_READ, 2 * N_INT + 2 * x, None) for x in range(0, 60, 7)]
    # Tombstones: some stay, some are re-inserted by the ops.
    deletes = [int(k) for k in rel.columns["k"][5::89]] + present[1::4]
    return rel, ops, deletes


def _str_world():
    rel = _str_relation()
    idx = range(0, N_STR, 53)
    ops = []
    for i in idx:
        ops.append((OP_READ, _str_key(2 * i), None))
        ops.append((OP_READ, _str_key(2 * i + 1), None))
        ops.append((OP_INSERT, _str_key(2 * i), rel.page_of(i)))
    last = rel.npages - 1
    ops += [(OP_INSERT, f"journals/vldbj/K{x:06d}", last) for x in range(60)]
    ops += [(OP_READ, f"journals/vldbj/K{x:06d}", None)
            for x in range(0, 60, 7)]
    deletes = [_str_key(2 * i) for i in range(5, N_STR, 89)]
    return rel, ops, deletes + [_str_key(2 * i) for i in idx][1::4]


WRAPS = {
    "int": (np.int64, np.array),
    "str": (np.str_, np.array),
}


def _bound_tree(rel, deletes):
    tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=1e-3, page_size=512),
                            unique=True)
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    tree.delete_many(deletes)
    return tree, stack


def _leaf_keys(tree):
    for leaf in tree.leaves_in_order():
        yield leaf.min_key
        yield leaf.max_key
        yield from leaf.deleted_keys


def _leaf_state(tree):
    return [(leaf.node_id, leaf.min_pid, leaf.min_key, leaf.max_key,
             leaf.nkeys, leaf.pages_covered, sorted(leaf.deleted_keys),
             list(leaf.counts), page_to_rows(leaf.page, leaf.nfilters).tobytes())
            for leaf in tree.leaves_in_order()]


@pytest.mark.parametrize("kind", sorted(WRAPS))
@pytest.mark.parametrize("wrap", [0, 1], ids=["scalar", "0d_array"])
def test_numpy_keys_equal_native_keys(kind, wrap):
    rel, ops, deletes = (_int_world if kind == "int" else _str_world)()
    native = type(ops[0][1])
    as_np = WRAPS[kind][wrap]
    np_ops = [(code, as_np(key), as_np(arg) if code == OP_SCAN else arg)
              for code, key, arg in ops]
    assert not any(type(key) is native for _, key, _ in np_ops)

    ref, ref_stack = _bound_tree(rel, deletes)
    tree, stack = _bound_tree(rel, [as_np(k) for k in deletes])
    ref_sink, sink = [], []
    want = ref.apply_many(ops, latency_sink=ref_sink)
    got = tree.apply_many(np_ops, latency_sink=sink)
    assert got == want
    assert sink == ref_sink
    assert stack.stats == ref_stack.stats
    assert stack.elapsed() == ref_stack.elapsed()
    assert _leaf_state(tree) == _leaf_state(ref)
    assert tree.n_leaves > 1

    reads = [key for code, key, _ in ops if code == OP_READ]
    ref_sink, sink = [], []
    want = ref.search_many(reads, latency_sink=ref_sink)
    got = tree.search_many([as_np(k) for k in reads], latency_sink=sink)
    assert got == want
    assert sink == ref_sink
    assert stack.stats == ref_stack.stats

    stored = list(_leaf_keys(tree))
    assert any(key in deletes for key in stored)
    assert all(type(key) is native for key in stored if key is not None)


# ---------------------------------------------------------------------------
# a tested read with no candidate page
# ---------------------------------------------------------------------------

def test_read_with_no_runs_costs_exactly_nothing():
    rel = _int_relation()
    tree, stack = _bound_tree(rel, [])
    key = 2 * 777
    pid = rel.page_of(777)
    empty = np.empty(0, dtype=np.int64)

    before, t0 = stack.stats.snapshot(), stack.elapsed()
    results, latencies = tree._fetch_runs([key + 1], [0, 0], empty, empty,
                                          [0], [0], [tree])
    assert results == [SearchResult(found=False)]
    assert latencies == [0.0]
    assert stack.stats == before
    assert stack.elapsed() == t0

    # Behind a read that fetches, the runless read moves nothing: the
    # charges are the fetching read's own.
    one = np.asarray([pid], dtype=np.int64), np.ones(1, dtype=np.int64)
    before, t0 = stack.stats.snapshot(), stack.elapsed()
    alone, alone_lat = tree._fetch_runs([key], [0, 1], *one, [0], [0],
                                        [tree])
    alone_io, alone_dt = stack.stats.diff(before), stack.elapsed() - t0
    before, t0 = stack.stats.snapshot(), stack.elapsed()
    results, latencies = tree._fetch_runs([key, key + 1], [0, 1, 1], *one,
                                          [0, 1], [0, 0], [tree])
    assert results == [*alone, SearchResult(found=False)]
    assert latencies == [*alone_lat, 0.0]
    assert stack.stats.diff(before) == alone_io
    assert stack.elapsed() - t0 == alone_dt


def test_filter_rejected_reads_fetch_nothing():
    rel = _int_relation()
    tree, stack = _bound_tree(rel, [])
    absent = list(range(1, 2 * N_INT, 2 * 61))
    before = stack.stats.snapshot()
    results = tree.search_many(absent)
    rejected = [r for r in results if r.pages_read == 0]
    assert len(rejected) > len(absent) // 2
    assert all(r == SearchResult(found=False) for r in rejected)
    if len(rejected) == len(absent):
        assert stack.stats.diff(before).data_reads == 0


def test_scan_windows_normalise_to_native_bounds():
    """NumPy and native bounds, mixed within a batch and within a window,
    come out as native values equal to the inputs."""
    windows = [(np.int64(3), 5), (4, np.int64(9)), (np.int32(7), 7),
               (np.str_("a"), "b"), ("c", np.str_("d")),
               (np.asarray(2), np.float64(2.5))]
    wins = normalize_scan_windows(windows)
    assert wins == [(3, 5), (4, 9), (7, 7), ("a", "b"), ("c", "d"),
                    (2, 2.5)]
    assert [tuple(type(b) for b in w) for w in wins] == [
        (int, int), (int, int), (int, int), (str, str), (str, str),
        (int, float)]
    assert normalize_scan_windows(iter([(1, 2)])) == [(1, 2)]
    assert normalize_scan_windows([]) == []


@pytest.mark.parametrize("entry", ["range_scan_many", "apply_many"])
def test_inverted_scan_window_raises_before_any_charge(entry):
    """The first inverted window raises with its native bounds in the
    message, and nothing in the batch is charged or applied."""
    tree, stack = _bound_tree(_int_relation(), [])
    before = (stack.stats.snapshot(), stack.elapsed(), _leaf_state(tree))
    windows = [(np.int64(2), 40), (np.int64(90), np.int64(10)), (9, 3)]
    with pytest.raises(ValueError,
                       match=r"^empty range: lo=90 > hi=10$"):
        if entry == "range_scan_many":
            tree.range_scan_many(windows)
        else:
            tree.apply_many([(OP_INSERT, 41, 1), (OP_READ, 4, None)]
                            + [(OP_SCAN, lo, hi) for lo, hi in windows])
    assert before == (stack.stats.snapshot(), stack.elapsed(),
                      _leaf_state(tree))
