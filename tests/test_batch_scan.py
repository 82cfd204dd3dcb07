"""Batch scan engine: ``range_scan_many`` equivalence with the scalar loop.

The headline property: for every index shape the serving layer supports
(BF-Tree ordered/unordered, B+-Tree clustered/unclustered, sharded and
unsharded) a batched scan replay agrees with the per-window scalar loop
on matches/pages_read/leaves_visited and on every IOStats counter —
after interleaved inserts and leaf splits included — and the Router's
scan batching is bit-identical to the per-op service loop on
``scan_mix`` traces.
"""

import math

import numpy as np
import pytest
from golden.write_cases import _apply, cases, steps
from per_op_replay import replay_per_op

from repro.baselines import BPlusTree, BPlusTreeConfig
from repro.core import BFTree, BFTreeConfig
from repro.harness import run_service
from repro.service import ShardedIndex
from repro.storage import build_stack
from repro.workloads import generate_trace, synthetic, tpch

FPP = 1e-3
CONFIG = "MEM/SSD"


@pytest.fixture(scope="module")
def relation():
    return synthetic.generate(16384, seed=21)


@pytest.fixture(scope="module")
def lineitem():
    return tpch.generate(8192, seed=3)


def _windows(n, lo_max, width_max, seed, base=0):
    """Seeded scan windows, including a slice beyond the key domain."""
    rng = np.random.default_rng(seed)
    los = rng.integers(base, lo_max, size=n)
    widths = rng.integers(1, width_max + 1, size=n)
    wins = [(int(lo), int(lo + w - 1)) for lo, w in zip(los, widths)]
    wins += [(lo_max + 10, lo_max + 500), (base, lo_max * 2),
             (base + 7, base + 7)]
    return wins


def _compare(make_tree, windows, mutate=None, warm=False, **scan_kw):
    """Scalar loop vs range_scan_many on twin trees over fresh stacks."""
    scalar_tree, batch_tree = make_tree(), make_tree()
    stack_s, stack_b = build_stack(CONFIG), build_stack(CONFIG)
    scalar_tree.bind(stack_s, warm=warm)
    batch_tree.bind(stack_b, warm=warm)
    if mutate is not None:
        mutate(scalar_tree)
        mutate(batch_tree)
    io_s, io_b = stack_s.stats.snapshot(), stack_b.stats.snapshot()
    t_s, t_b = stack_s.elapsed(), stack_b.elapsed()
    ref, ref_latencies = [], []
    for lo, hi in windows:
        begin = stack_s.elapsed()
        ref.append(scalar_tree.range_scan(lo, hi, **scan_kw))
        ref_latencies.append(stack_s.elapsed() - begin)
    sink: list[float] = []
    got = batch_tree.range_scan_many(windows, latency_sink=sink, **scan_kw)
    assert got == ref
    assert stack_s.stats.diff(io_s) == stack_b.stats.diff(io_b)
    assert math.isclose(stack_s.elapsed() - t_s,
                        stack_b.elapsed() - t_b, rel_tol=1e-9)
    assert np.allclose(ref_latencies, sink, rtol=1e-9)
    scalar_tree.unbind()
    batch_tree.unbind()
    return got


class TestBFTreeScanEquivalence:
    def test_ordered_pk(self, relation):
        _compare(
            lambda: BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                     unique=True),
            _windows(150, 16384, 120, seed=7),
        )

    def test_ordered_duplicates(self, relation):
        hi = int(np.asarray(relation.columns["att1"]).max())
        _compare(
            lambda: BFTree.bulk_load(relation, "att1",
                                     BFTreeConfig(fpp=FPP)),
            _windows(120, hi, 40, seed=8),
        )

    def test_unordered_partitioned(self, lineitem):
        col = np.asarray(lineitem.columns["commitdate"])
        _compare(
            lambda: BFTree.bulk_load(lineitem, "commitdate",
                                     BFTreeConfig(fpp=FPP), ordered=False),
            _windows(100, int(col.max()), 200, seed=9,
                     base=int(col.min())),
        )

    def test_enumerate_boundaries(self, relation):
        _compare(
            lambda: BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                     unique=True),
            _windows(60, 16384, 150, seed=10),
            enumerate_boundaries=True,
        )

    def test_after_interleaved_inserts_and_splits(self, relation):
        def mutate(tree):
            before = tree.n_leaves
            for i in range(2500):
                tree.insert(16384 + i, relation.npages - 1 - (i % 8))
            assert tree.n_leaves > before  # splits actually happened

        _compare(
            lambda: BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                     unique=True),
            _windows(150, 20000, 300, seed=11),
            mutate=mutate,
        )

    def test_warm_cache(self, relation):
        _compare(
            lambda: BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                     unique=True),
            _windows(80, 16384, 120, seed=12),
            warm=True,
        )

    def test_empty_tree(self, relation):
        tree = BFTree(relation, "pk")
        results = tree.range_scan_many([(1, 10), (5, 5)])
        assert all(
            r.matches == r.pages_read == r.leaves_visited == 0
            for r in results
        )

    def test_invalid_window_rejected_before_charges(self, relation):
        tree = BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                unique=True)
        stack = build_stack(CONFIG)
        tree.bind(stack)
        before = stack.stats.snapshot()
        with pytest.raises(ValueError, match="empty range"):
            tree.range_scan_many([(0, 50), (10, 5)])
        assert stack.stats.snapshot() == before  # nothing charged
        assert stack.elapsed() == 0.0


class TestBPlusTreeScanEquivalence:
    def test_clustered(self, relation):
        _compare(
            lambda: BPlusTree.bulk_load(relation, "pk", unique=True),
            _windows(150, 16384, 120, seed=13),
        )

    def test_unclustered(self, relation):
        _compare(
            lambda: BPlusTree.bulk_load(
                relation, "pk", BPlusTreeConfig(clustered=False), unique=True
            ),
            _windows(120, 16384, 60, seed=14),
        )

    def test_clustered_duplicates_after_inserts(self, relation):
        def mutate(tree):
            for i in range(400):
                tree.insert(20000 + i, i % relation.ntuples)

        hi = int(np.asarray(relation.columns["att1"]).max())
        _compare(
            lambda: BPlusTree.bulk_load(relation, "att1"),
            _windows(100, hi, 30, seed=15),
            mutate=mutate,
        )


class TestShardedScanEquivalence:
    def test_scan_plan_many_matches_scan_plan(self, relation):
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        windows = _windows(60, 16384, 4000, seed=17)
        plans = service.scan_plan_many(windows)
        assert plans == [service.scan_plan(lo, hi) for lo, hi in windows]


class TestRouterScanBatching:
    """Router replay with scan batching is bit-identical to the per-op
    service loop on scan_mix traces."""

    @pytest.mark.parametrize("kind", ["bf", "bplus"])
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_scan_batched_replay_identical(self, relation, kind, n_shards):
        trace = generate_trace(relation, "pk", mix="scan_mix", n_ops=600,
                               skew="zipfian", seed=19)
        config = BFTreeConfig(fpp=FPP) if kind == "bf" else None

        def build():
            return ShardedIndex.build(relation, "pk", n_shards=n_shards,
                                      kind=kind, config=config, unique=True)

        batched = run_service(build(), trace, CONFIG)
        per_op = replay_per_op(build(), trace, CONFIG)
        assert batched.results == per_op.results
        assert batched.io == per_op.io
        assert np.allclose(batched.stats.op_latencies,
                           per_op.stats.op_latencies, rtol=1e-9)
        assert np.allclose(batched.stats.per_shard_clock,
                           per_op.stats.per_shard_clock, rtol=1e-9)

    def test_scan_batching_preserves_read_your_writes(self, relation):
        """A scan after an insert to the same shard observes it even
        though scans no longer flush the read buffer (writes fence)."""
        trace = generate_trace(relation, "pk", mix="scan_mix", n_ops=400,
                               skew="uniform", seed=23)
        service = ShardedIndex.build(relation, "pk", n_shards=2, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        report = run_service(service, trace, CONFIG)

        ref_tree = BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=FPP),
                                    unique=True)
        stack = build_stack(CONFIG)
        ref_tree.bind(stack)
        for i in range(len(trace)):
            key = trace.keys[i].item()
            op = int(trace.ops[i])
            if op == 1:  # OP_INSERT
                ref_tree.insert(
                    key, relation.page_of(int(trace.tids[i]))
                )
            elif op == 2:  # OP_SCAN
                hi = key + int(trace.scan_widths[i]) - 1
                ref = ref_tree.range_scan(key, hi)
                got = report.results[i]
                assert (got.matches, got.pages_read) == \
                    (ref.matches, ref.pages_read)
        ref_tree.unbind()


@pytest.mark.xfail(strict=True, reason=(
    "range_scan_many reads a data page once per leaf covering it "
    "(CHANGES.md, FOUND)"))
def test_shared_page_is_charged_once():
    """Two leaves share page 811 after the write golden's
    ``bf_pk_fpp0.2`` case reaches step 209; a scan across both must not
    charge that page twice."""
    case = next(c for c in cases() if c.name == "bf_pk_fpp0.2")
    tree = case.build()
    stack = build_stack(case.storage)
    tree.bind(stack)
    for step in steps(case)[:210]:
        _apply(tree, step, [])
    lo, hi = 12970, 12990
    legs = [leaf for leaf in tree.leaves_in_order()
            if leaf.min_key <= hi and leaf.max_key >= lo]
    pages = set()
    for leaf in legs:
        pages.update(range(leaf.min_pid, leaf.min_pid + leaf.pages_covered))
    assert len(legs) == 2 and len(pages) < sum(l.pages_covered for l in legs)
    before = stack.stats.snapshot()
    (result,) = tree.range_scan_many([(lo, hi)])
    assert result.pages_read <= len(pages)
    assert stack.stats.diff(before).data_reads <= len(pages)
