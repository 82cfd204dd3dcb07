"""Sharded index service: equivalence, routing, latency accounting.

The headline property: a ShardedIndex over *any* shard count returns
bit-identical ``SearchResult``s and summed per-shard IOStats equal to a
single unsharded index replaying the same trace — across uniform and
Zipfian key popularity, for both index kinds, and under interleaved
inserts (leaf splits included, thanks to structural filter seeding).
"""

import numpy as np
import pytest
from golden.read_cases import assert_io_equal
from golden.write_cases import tree_digest
from per_op_replay import replay_per_op

from repro.api import DeleteOutcome
from repro.baselines import BPlusTree
from repro.baselines.bptree import BPlusTreeConfig
from repro.core import BFTree, BFTreeConfig
from repro.harness import run_service
from repro.service import Router, ShardedIndex
from repro.storage import Relation, build_stack
from repro.workloads import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    generate_trace,
    point_probes,
    synthetic,
)

FPP = 1e-3
CONFIG = "MEM/SSD"


@pytest.fixture(scope="module")
def relation():
    return synthetic.generate(16384, seed=21)


def _unsharded(relation, column, kind, unique):
    if kind == "bf":
        return BFTree.bulk_load(relation, column, BFTreeConfig(fpp=FPP),
                                unique=unique)
    return BPlusTree.bulk_load(relation, column, unique=unique)


def _replay_unsharded(tree, trace, relation):
    """Trace-order scalar replay on one stack; returns (results, io)."""
    stack = build_stack(CONFIG)
    tree.bind(stack)
    try:
        results = []
        for i in range(len(trace)):
            key = trace.keys[i].item()
            op = int(trace.ops[i])
            if op == OP_READ:
                results.append(tree.search(key))
            elif op == OP_INSERT:
                tid = int(trace.tids[i])
                if isinstance(tree, BFTree):
                    tree.insert(key, relation.page_of(tid))
                else:
                    tree.insert(key, tid)
                results.append(None)
            else:
                hi = key + int(trace.scan_widths[i]) - 1
                results.append(tree.range_scan(key, hi))
    finally:
        tree.unbind()
    return results, stack.stats.snapshot()


class TestShardedEquivalence:
    """Sharded == unsharded, bit for bit, for point operations."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("skew", ["uniform", "zipfian"])
    def test_probe_equivalence_bf(self, relation, n_shards, skew):
        trace = generate_trace(relation, "pk", mix="read_only", n_ops=300,
                               skew=skew, seed=5, hit_rate=0.85)
        tree = _unsharded(relation, "pk", "bf", unique=True)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "pk", n_shards=n_shards,
                                     kind="bf", config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        report = run_service(service, trace, CONFIG)
        assert service.uniform_height
        assert report.results == ref_results
        assert report.io == ref_io

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_probe_equivalence_bplus(self, relation, n_shards):
        trace = generate_trace(relation, "pk", mix="read_only", n_ops=200,
                               skew="zipfian", seed=6, hit_rate=0.9)
        tree = _unsharded(relation, "pk", "bplus", unique=True)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "pk", n_shards=n_shards,
                                     kind="bplus", unique=True)
        report = run_service(service, trace, CONFIG)
        assert report.results == ref_results
        assert_io_equal(report.io, ref_io, 1e-12)

    def test_probe_equivalence_nonunique_column(self, relation):
        """The duplicate-heavy att1 column: spanning keys must not be cut."""
        trace = generate_trace(relation, "att1", mix="read_only", n_ops=200,
                               skew="zipfian", seed=8, hit_rate=0.8)
        tree = _unsharded(relation, "att1", "bf", unique=False)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "att1", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP))
        report = run_service(service, trace, CONFIG)
        assert report.results == ref_results
        assert report.io == ref_io

    @pytest.mark.parametrize("mix", ["balanced", "insert_heavy"])
    def test_mixed_trace_with_splits(self, relation, mix):
        """Insert-heavy replay — leaf splits happen on both sides and the
        rebuilt filters still match bit for bit (structural seeds)."""
        trace = generate_trace(relation, "pk", mix=mix, n_ops=400,
                               skew="zipfian", seed=13)
        tree = _unsharded(relation, "pk", "bf", unique=True)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        report = run_service(service, trace, CONFIG)
        assert report.results == ref_results
        assert report.io == ref_io

    def test_range_scan_counts(self, relation):
        """Scatter-gather scans: identical matches/pages/leaves."""
        tree = _unsharded(relation, "pk", "bf", unique=True)
        stack = build_stack(CONFIG)
        tree.bind(stack)
        ref = tree.range_scan(3000, 9000)
        tree.unbind()

        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        service.bind(CONFIG)
        result = service.range_scan(3000, 9000)
        service.unbind()
        assert result.matches == ref.matches
        assert result.pages_read == ref.pages_read
        assert result.leaves_visited == ref.leaves_visited


class TestRouting:
    def test_route_matches_directory(self, relation):
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        keys = np.asarray(relation.columns["pk"])[::97]
        assign = service.route(keys)
        for key, s in zip(keys, assign):
            shard = service.shards[s]
            assert shard.lo_key is None or key >= shard.lo_key
            if s + 1 < service.n_shards:
                assert key < service.shards[s + 1].lo_key

    def test_shards_partition_leaves(self, relation):
        tree = _unsharded(relation, "pk", "bf", unique=True)
        n_leaves = tree.n_leaves
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        assert service.n_leaves == n_leaves
        assert all(s.index.n_leaves >= 2 for s in service.shards)

    def test_excess_shards_clamped(self, relation):
        service = ShardedIndex.build(relation, "pk", n_shards=10_000,
                                     kind="bf", config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        assert 1 <= service.n_shards <= service.n_leaves // 2 + 1

    def test_scan_plan_covers_range(self, relation):
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        legs = service.scan_plan(100, 16000)
        assert legs[0][1] == 100
        assert legs[-1][2] == 16000
        for (s, _, hi_a), (_, lo_b, _) in zip(legs, legs[1:]):
            # Middle legs reach the routing boundary (the next shard's
            # lo_key, which the left shard can never hold), leaving no
            # key-space gap between consecutive legs.
            assert hi_a == lo_b == service.shards[s + 1].lo_key

    def test_scan_plan_covers_keys_inserted_past_hi_key(self):
        """Regression: middle legs used to clamp sub_hi to the shard's
        *build-time* hi_key, so a key inserted between hi_key and the
        next shard's routing boundary was silently dropped from
        cross-shard scans."""
        rel = Relation({"pk": np.arange(2048, dtype=np.int64) * 10},
                       tuple_size=256)
        service = ShardedIndex.build(
            rel, "pk", n_shards=4, kind="bplus",
            config=BPlusTreeConfig(clustered=False), unique=True,
        )
        assert service.n_shards >= 3
        shard = service.shards[0]
        boundary = service.shards[1].lo_key
        inserted = shard.hi_key + 5          # past hi_key, below boundary
        assert inserted < boundary
        assert service.route_key(inserted) == 0
        service.insert(inserted, 0)

        lo, hi = shard.hi_key - 40, boundary + 40   # spans the cut
        legs = service.scan_plan(lo, hi)
        assert len(legs) >= 2
        assert any(sub_lo <= inserted <= sub_hi for _, sub_lo, sub_hi in legs)

        service.bind(CONFIG)
        result = service.range_scan(lo, hi)
        service.unbind()
        values = np.asarray(rel.columns["pk"])
        expected = int(np.count_nonzero((values >= lo) & (values <= hi)))
        assert result.matches == expected + 1   # the inserted key counts


class TestWriteBatching:
    """The Router's write-batched replay is bit-identical to the per-op
    service loop and to the scalar unsharded loop."""

    @pytest.mark.parametrize("mix", ["balanced", "insert_heavy"])
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_write_batched_replay_equals_unsharded(self, relation, mix,
                                                   n_shards):
        trace = generate_trace(relation, "pk", mix=mix, n_ops=400,
                               skew="zipfian", seed=23)
        tree = _unsharded(relation, "pk", "bf", unique=True)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "pk", n_shards=n_shards,
                                     kind="bf", config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        report = run_service(service, trace, CONFIG)
        assert report.results == ref_results
        assert report.io == ref_io

    def test_write_batched_replay_equals_unsharded_bplus(self, relation):
        trace = generate_trace(relation, "pk", mix="insert_heavy",
                               n_ops=300, skew="zipfian", seed=29)
        tree = _unsharded(relation, "pk", "bplus", unique=True)
        ref_results, ref_io = _replay_unsharded(tree, trace, relation)

        service = ShardedIndex.build(relation, "pk", n_shards=4,
                                     kind="bplus", unique=True)
        report = run_service(service, trace, CONFIG)
        assert report.results == ref_results
        assert report.io == ref_io

    def test_write_batch_latencies_match_scalar(self, relation):
        """insert_many's latency sink == per-op clock brackets."""
        trace = generate_trace(relation, "pk", mix="insert_heavy",
                               n_ops=300, skew="zipfian", seed=31)
        service = ShardedIndex.build(relation, "pk", n_shards=3, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        batched = run_service(service, trace, CONFIG)

        service2 = ShardedIndex.build(relation, "pk", n_shards=3, kind="bf",
                                      config=BFTreeConfig(fpp=FPP),
                                      unique=True)
        scalar = replay_per_op(service2, trace, CONFIG)
        assert np.allclose(batched.stats.op_latencies,
                           scalar.stats.op_latencies, rtol=1e-9)
        assert batched.results == scalar.results
        assert batched.io == scalar.io

    @pytest.mark.parametrize("short", ["ops", "keys", "tids",
                                       "scan_widths", "expected_hits"])
    def test_trace_rejects_a_short_column(self, short):
        """A trace whose columns differ in length cannot be built, so no
        shard can apply part of a malformed batch."""
        columns = {
            "ops": np.full(5, OP_DELETE, dtype=np.uint8),
            "keys": np.arange(5, dtype=np.int64),
            "tids": np.arange(5, dtype=np.int64),
            "scan_widths": np.zeros(5, dtype=np.int64),
            "expected_hits": np.ones(5, dtype=bool),
        }
        columns[short] = columns[short][:-1]
        with pytest.raises(ValueError, match="one length"):
            MixedTrace(**columns, mix=MIXES["read_heavy"], skew="uniform",
                       theta=0.99, seed=0)

    def test_router_deletes_reach_counting_filters(self, relation):
        """A delete's tuple id rides the Router to its shard's write
        target: on a counting BF service each targeted delete decrements
        the key's counters in place (§7), exactly as the per-op
        ``ShardedIndex.delete`` does; a delete with tid -1 tombstones."""
        def build():
            return ShardedIndex.build(
                relation, "pk", n_shards=4, kind="bf", unique=True,
                config=BFTreeConfig(fpp=FPP, filter_kind="counting"))

        values = np.asarray(relation.columns["pk"])
        keys = np.random.default_rng(7).choice(values, size=106,
                                               replace=False)
        tids = np.searchsorted(values, keys)
        tids[::8] = -1
        n = len(keys)
        trace = MixedTrace(
            ops=np.full(n, OP_DELETE, dtype=np.uint8), keys=keys,
            tids=tids, scan_widths=np.zeros(n, dtype=np.int64),
            mix=MIXES["read_heavy"], skew="uniform", theta=0.99, seed=7)

        def counters(service):
            return sum(int(leaf.counters.sum()) for shard in service.shards
                       for leaf in shard.index.leaves_in_order())

        routed_service, per_op_service = build(), build()
        assert routed_service.n_shards == 4
        before = counters(routed_service)
        routed = run_service(routed_service, trace, CONFIG)
        per_op = replay_per_op(per_op_service, trace, CONFIG)
        assert routed.results == [
            DeleteOutcome(removed=True, tombstoned=bool(t < 0)) for t in tids]
        assert routed.results == per_op.results
        assert routed.io == per_op.io
        assert np.allclose(routed.stats.op_latencies,
                           per_op.stats.op_latencies, rtol=1e-9)
        assert counters(routed_service) < before
        for a, b in zip(routed_service.shards, per_op_service.shards):
            assert tree_digest(a.index) == tree_digest(b.index)
        tombstones = sum(len(leaf.deleted_keys)
                         for shard in routed_service.shards
                         for leaf in shard.index.leaves_in_order())
        assert tombstones == int(np.count_nonzero(tids < 0))

    def test_sharded_insert_many_equals_unsharded_loop(self, relation):
        """An insert-only Router replay routes vectorized but performs
        the exact scalar work: merged IOStats and post-insert probes
        match an unsharded tree inserting the same batch in order."""
        rng = np.random.default_rng(41)
        keys = rng.integers(0, 16384, size=500).tolist()
        values = np.asarray(relation.columns["pk"])
        tids = [int(np.searchsorted(values, k)) for k in keys]

        tree = _unsharded(relation, "pk", "bf", unique=True)
        stack = build_stack(CONFIG)
        tree.bind(stack)
        for k, t in zip(keys, tids):
            tree.insert(k, relation.page_of(t))
        ref_insert_io = stack.stats.snapshot()
        probes = point_probes(relation, "pk", 100, seed=6)
        ref_results = [tree.search(k.item()) for k in probes.keys]
        tree.unbind()

        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        service.bind(CONFIG)
        n = len(keys)
        trace = MixedTrace(
            ops=np.full(n, OP_INSERT, dtype=np.int8),
            keys=np.asarray(keys, dtype=np.int64),
            tids=np.asarray(tids, dtype=np.int64),
            scan_widths=np.zeros(n, dtype=np.int64),
            mix=MIXES["insert_heavy"], skew="uniform", theta=0.99, seed=41,
        )
        _, stats = Router(service).replay(trace)
        results = [service.search(k.item()) for k in probes.keys]
        service.unbind()
        assert len(stats.op_latencies) == n
        assert stats.io == ref_insert_io
        assert results == ref_results


class TestLatencyAccounting:
    def test_batch_latencies_match_scalar(self, relation):
        """latency_sink under search_many == per-op clock brackets."""
        trace = generate_trace(relation, "pk", mix="read_only", n_ops=150,
                               skew="zipfian", seed=3, hit_rate=0.9)
        service = ShardedIndex.build(relation, "pk", n_shards=3, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        batched = run_service(service, trace, CONFIG)

        service2 = ShardedIndex.build(relation, "pk", n_shards=3, kind="bf",
                                      config=BFTreeConfig(fpp=FPP),
                                      unique=True)
        scalar = replay_per_op(service2, trace, CONFIG)
        assert np.allclose(batched.stats.op_latencies,
                           scalar.stats.op_latencies, rtol=1e-9)
        assert batched.results == scalar.results

    def test_percentiles_monotone(self, relation):
        trace = generate_trace(relation, "pk", mix="scan_mix", n_ops=300,
                               skew="zipfian", seed=4)
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        report = run_service(service, trace, CONFIG)
        summary = report.latency()
        assert 0 < summary.p50 <= summary.p95 <= summary.p99 <= summary.max
        reads = report.latency("read")
        assert reads.count == trace.count(OP_READ)
        scans = report.latency("scan")
        assert scans.count == trace.count(OP_SCAN)

    def test_makespan_shrinks_with_shards(self, relation):
        """More shards => smaller simulated makespan (higher throughput)."""
        trace = generate_trace(relation, "pk", mix="read_heavy", n_ops=400,
                               skew="uniform", seed=17)
        spans = []
        for n_shards in (1, 4):
            service = ShardedIndex.build(relation, "pk", n_shards=n_shards,
                                         kind="bf",
                                         config=BFTreeConfig(fpp=FPP),
                                         unique=True)
            spans.append(run_service(service, trace, CONFIG).stats.makespan)
        assert spans[1] < spans[0] / 2  # >= 2x scaling at 4 shards


class TestRouterValidation:
    def test_replay_requires_bind(self, relation):
        service = ShardedIndex.build(relation, "pk", n_shards=2, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        trace = generate_trace(relation, "pk", n_ops=10, seed=1)
        with pytest.raises(RuntimeError, match="not bound"):
            Router(service).replay(trace)

    def test_bad_kind_rejected(self, relation):
        """Unregistered backends are rejected with the registry listing."""
        with pytest.raises(ValueError, match="registered backends"):
            ShardedIndex.build(relation, "pk", kind="lsm")

    def test_unshardable_backend_degenerates_to_one_shard(self, relation):
        """Backends without sliceable leaves serve as one shard."""
        service = ShardedIndex.build(relation, "pk", n_shards=4, kind="hash",
                                     unique=True)
        assert service.n_shards == 1
        service.bind(CONFIG)
        results = [service.search(k) for k in (5, 17, 10**9)]
        service.unbind()
        assert [r.found for r in results] == [True, True, False]

    def test_search_many_unbound_runs_free(self, relation):
        """Unbound service still answers (no I/O charged), like the trees."""
        service = ShardedIndex.build(relation, "pk", n_shards=2, kind="bf",
                                     config=BFTreeConfig(fpp=FPP),
                                     unique=True)
        probes = point_probes(relation, "pk", 20, seed=2)
        results = [service.search(k.item()) for k in probes.keys]
        assert len(results) == 20
        assert all(r.found for r in results)


# ---------------------------------------------------------------------------
# dynamic topology: routing table, live split/merge, rebalancing
# ---------------------------------------------------------------------------

from repro.service import (          # noqa: E402  (grouped with their tests)
    LoadWindow,
    Rebalancer,
    RebalancerConfig,
    RoutingTable,
    queued_response_times,
    run_elastic_service,
)
from repro.service.sharded import MIN_SPLIT_LEAVES  # noqa: E402


@pytest.fixture(scope="module")
def wide_relation():
    """32768 sorted int64 pks: a 16-leaf donor, so 4 shards of 4 leaves
    each — every shard is live-splittable (>= 4 leaves)."""
    return Relation({"pk": np.arange(32768, dtype=np.int64)},
                    tuple_size=256, name="pk-wide")


def _wide_service(wide_relation, n_shards=4):
    return ShardedIndex.build(wide_relation, "pk", n_shards=n_shards,
                              kind="bf", fpp=FPP)


class TestRoutingTable:
    def test_route_and_stable_ids(self):
        t = RoutingTable([(None, 10), (100, 20), (200, 30)])
        assert t.epoch == 0
        assert t.shard_ids == [10, 20, 30]
        assert list(t.route([5, 99, 100, 150, 200, 999])) \
            == [0, 0, 1, 1, 2, 2]
        assert list(t.route_ids([5, 100, 999])) == [10, 20, 30]
        assert t.route_key(99) == 0
        assert t.span_of(20) == (100, 200)
        assert t.span_of(30) == (200, None)
        assert t.ordinal_of(30) == 2
        with pytest.raises(KeyError):
            t.ordinal_of(999)

    def test_split_and_merge_bump_epoch(self):
        t = RoutingTable([(None, 0), (100, 1)])
        t.split(1, 150, 2, 3)
        assert t.epoch == 1
        assert t.shard_ids == [0, 2, 3]
        assert t.route_key(120) == 1 and t.route_key(150) == 2
        t.merge(2, 3, 4)
        assert t.epoch == 2
        assert t.shard_ids == [0, 4]
        assert t.span_of(4) == (100, None)

    def test_split_validations(self):
        t = RoutingTable([(None, 0), (100, 1)])
        with pytest.raises(ValueError, match="not above"):
            t.split(1, 100, 2, 3)          # boundary == range lo
        with pytest.raises(ValueError, match="not below"):
            t.split(0, 150, 2, 3)          # boundary past the upper fence
        with pytest.raises(ValueError, match="already routed"):
            t.split(1, 150, 0, 3)          # child id collides with a live one
        with pytest.raises(ValueError, match="must differ"):
            t.split(1, 150, 3, 3)
        assert t.epoch == 0                # failed ops never bump the epoch

    def test_merge_requires_adjacency(self):
        t = RoutingTable([(None, 0), (100, 1), (200, 2)])
        with pytest.raises(ValueError, match="not adjacent"):
            t.merge(0, 2, 9)
        with pytest.raises(ValueError, match="not adjacent"):
            t.merge(1, 0, 9)               # wrong order is not adjacency
        assert t.epoch == 0

    def test_leftmost_entry_must_be_open(self):
        with pytest.raises(ValueError, match="lo_key None"):
            RoutingTable([(5, 0), (100, 1)])
        with pytest.raises(ValueError, match="strictly increasing"):
            RoutingTable([(None, 0), (100, 1), (100, 2)])


class TestDynamicTopology:
    def test_split_mints_fresh_ids_and_bumps_epoch(self, wide_relation):
        svc = _wide_service(wide_relation)
        ids0 = list(svc.table.shard_ids)
        victim = ids0[1]
        lo, hi = svc.table.span_of(victim)
        left, right = svc.split_shard(victim)
        assert svc.topology_epoch == 1
        assert svc.n_shards == 5
        assert victim not in svc.table.shard_ids
        assert left not in ids0 and right not in ids0
        # The children cover exactly the parent's old range.
        llo, lhi = svc.table.span_of(left)
        rlo, rhi = svc.table.span_of(right)
        assert llo == lo and rhi == hi and lhi == rlo

    def test_split_preserves_reads_and_io_continuity(self, wide_relation):
        svc = _wide_service(wide_relation)
        svc.bind(CONFIG)
        try:
            keys = list(range(0, 32768, 97))
            before = [svc.search(k) for k in keys]
            io0 = svc.merged_io().snapshot().__dict__
            victim = max(svc.shards,
                         key=lambda s: s.index.n_leaves).shard_id
            svc.split_shard(victim)
            # Splitting charges no I/O and loses none already charged.
            assert svc.merged_io().snapshot().__dict__ == io0
            after = [svc.search(k) for k in keys]
            assert after == before
        finally:
            svc.unbind()

    @pytest.mark.parametrize("kind", ["bf", "bplus"])
    def test_split_after_leaf_splits_keeps_every_leaf(self, wide_relation,
                                                      kind):
        """A shard whose tree split leaves after it was built hands its
        live chain to ``split_shard``: no leaf and no key is lost (the
        build-time leaf order made the BF shard raise KeyError and the
        B+ shard drop every leaf added since)."""
        svc = ShardedIndex.build(wide_relation, "pk", n_shards=4,
                                 kind=kind, fpp=FPP)
        top = wide_relation.npages - 1
        novel = list(range(32768, 32768 + 1200))
        tids = [(top - j % 8) * wide_relation.tuples_per_page
                for j in range(len(novel))]
        svc.bind(CONFIG)
        try:
            leaves0 = svc.n_leaves
            for key, tid in zip(novel, tids):
                svc.insert(key, tid)
            assert svc.n_leaves > leaves0          # leaf splits ran
            last = svc.shards[-1]
            assert len(last.index.shard_leaves()) == last.index.n_leaves
            keys = list(range(0, 32768, 97)) + novel
            before = [svc.search(k) for k in keys]
            n_leaves = svc.n_leaves
            svc.split_shard(last.shard_id)
            assert svc.n_leaves == n_leaves
            assert [svc.search(k) for k in keys] == before
        finally:
            svc.unbind()

    def test_merge_restores_single_range(self, wide_relation):
        svc = _wide_service(wide_relation)
        victim = max(svc.shards, key=lambda s: s.index.n_leaves).shard_id
        lo, hi = svc.table.span_of(victim)
        left, right = svc.split_shard(victim)
        merged = svc.merge_shards(right, left)   # order-insensitive
        assert svc.topology_epoch == 2
        assert svc.n_shards == 4
        assert svc.table.span_of(merged) == (lo, hi)
        results = [svc.search(k) for k in range(0, 32768, 131)]
        assert all(r.found for r in results)

    def test_split_validations(self, wide_relation):
        svc = _wide_service(wide_relation)
        with pytest.raises(KeyError, match="not in the service"):
            svc.split_shard(999)
        ids = svc.table.shard_ids
        with pytest.raises(ValueError, match="not adjacent"):
            svc.merge_shards(ids[0], ids[2])

    def test_split_needs_four_leaves(self):
        rel = Relation({"pk": np.arange(8192, dtype=np.int64)},
                       tuple_size=256, name="pk-narrow")
        svc = ShardedIndex.build(rel, "pk", n_shards=2, kind="bf", fpp=FPP)
        sid = svc.table.shard_ids[0]
        assert svc.shard_by_id(sid).index.n_leaves == 2
        with pytest.raises(ValueError, match="at least 4"):
            svc.split_shard(sid)

    @pytest.mark.parametrize("mix,skew", [
        ("balanced", "hotspot"),
        ("scan_mix", "zipfian"),
    ])
    def test_mid_trace_topology_changes_preserve_results(
        self, wide_relation, mix, skew
    ):
        """The acceptance property: a trace replayed through a service
        undergoing forced mid-trace splits and merges returns per-op
        results bit-identical to a static-topology replay."""
        trace = generate_trace(wide_relation, "pk", mix=mix, n_ops=1800,
                               skew=skew, seed=77)
        static = _wide_service(wide_relation)
        report = run_service(static, trace, CONFIG)
        want = report.results

        dyn = _wide_service(wide_relation)
        dyn.bind(CONFIG)
        router = Router(dyn)
        got = []
        try:
            cuts = [0, 600, 1200, len(trace)]
            children = None
            for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                got.extend(router.replay(trace.slice(lo, hi))[0])
                if j == 0:
                    victim = max(
                        dyn.shards, key=lambda s: s.index.n_leaves
                    ).shard_id
                    children = dyn.split_shard(victim)
                elif j == 1:
                    dyn.merge_shards(*children)
            dyn_io = dyn.merged_io().snapshot().__dict__
        finally:
            dyn.unbind()
        assert dyn.topology_epoch == 2
        assert len(got) == len(want)
        assert got == want
        if mix == "balanced":
            # No scans cross the transient boundary, so even the summed
            # I/O counters match the static topology exactly.
            assert dyn_io == report.stats.io.snapshot().__dict__


def _load(svc, index, clock):
    """A LoadWindow over the service's live shards with given clocks."""
    return LoadWindow(index=index, epoch=svc.topology_epoch,
                      ops={sid: 1 for sid in svc.table.shard_ids},
                      clock=clock)


def _skewed(svc, index, hot_sid, share=0.9):
    ids = svc.table.shard_ids
    others = [s for s in ids if s != hot_sid]
    clock = {s: (1.0 - share) / len(others) for s in others}
    clock[hot_sid] = share
    return _load(svc, index, clock)


class TestRebalancer:
    def test_sustained_hot_shard_splits_with_hysteresis(self, wide_relation):
        svc = _wide_service(wide_relation)
        reb = Rebalancer(svc, RebalancerConfig(sustain=2, cooldown=1))
        sid = svc.table.shard_ids[0]
        assert reb.observe(_skewed(svc, 0, sid)) == []        # streak 1
        decisions = reb.observe(_skewed(svc, 1, sid))         # streak 2
        assert [d.action for d in decisions] == ["split"]
        assert decisions[0].source == (sid,)
        assert svc.n_shards == 5
        assert svc.topology_epoch == 1
        # Cooldown window: even a hot signal does nothing.
        hot2 = svc.table.shard_ids[-1]
        assert reb.observe(_skewed(svc, 2, hot2)) == []
        # Streaks were reset by the cooldown: sustain counts from zero.
        assert reb.observe(_skewed(svc, 3, hot2)) == []
        follow = reb.observe(_skewed(svc, 4, hot2))
        assert [d.action for d in follow] == ["split"]
        assert len(reb.log) == 2 and reb.log.n_splits == 2

    def test_sustained_cold_pair_merges(self, wide_relation):
        svc = _wide_service(wide_relation)
        ids = svc.table.shard_ids
        cfg = RebalancerConfig(sustain=2, cooldown=0, max_shards=4)
        reb = Rebalancer(svc, cfg)
        clock = {ids[0]: 0.05, ids[1]: 0.05, ids[2]: 0.45, ids[3]: 0.45}
        assert reb.observe(_load(svc, 0, clock)) == []        # streak 1
        decisions = reb.observe(_load(svc, 1, clock))         # streak 2
        assert [d.action for d in decisions] == ["merge"]
        assert decisions[0].source == (ids[0], ids[1])
        assert svc.n_shards == 3
        assert reb.log.n_merges == 1

    def test_min_shards_floor_blocks_merge(self, wide_relation):
        svc = _wide_service(wide_relation, n_shards=2)
        ids = svc.table.shard_ids
        reb = Rebalancer(svc, RebalancerConfig(sustain=1, cooldown=0,
                                               min_shards=2))
        cold = _load(svc, 0, {ids[0]: 0.01, ids[1]: 0.01})
        assert reb.observe(cold) == []
        assert svc.n_shards == 2

    def test_hot_shard_below_split_minimum_is_left_alone(self,
                                                          wide_relation):
        """The control loop asks ``split_shard``'s own leaf minimum, so
        a hot shard too small to split never reaches it."""
        svc = _wide_service(wide_relation, n_shards=8)
        sid = svc.table.shard_ids[0]
        assert svc.shard_by_id(sid).index.n_leaves < MIN_SPLIT_LEAVES
        reb = Rebalancer(svc, RebalancerConfig(sustain=1, cooldown=0))
        decisions = reb.observe(_skewed(svc, 0, sid))
        assert "split" not in [d.action for d in decisions]
        assert sid in svc.table.shard_ids

    def test_zero_clock_window_is_ignored(self, wide_relation):
        svc = _wide_service(wide_relation)
        reb = Rebalancer(svc, RebalancerConfig(sustain=1, cooldown=0))
        idle = _load(svc, 0, {sid: 0.0 for sid in svc.table.shard_ids})
        assert reb.observe(idle) == []
        assert len(reb.log) == 0

    def test_elastic_run_splits_under_moving_hotspot(self, wide_relation):
        trace = generate_trace(wide_relation, "pk", mix="read_heavy",
                               n_ops=4096, skew="hotspot", seed=5,
                               phases=2, hotspot_width=0.2)
        svc = _wide_service(wide_relation)
        reb = Rebalancer(svc, RebalancerConfig(sustain=1, cooldown=0,
                                               max_shards=12))
        report = run_elastic_service(svc, trace, CONFIG, rebalancer=reb,
                                     window_ops=512)
        assert report.n_ops == len(trace)
        assert len(report.results) == len(trace)
        assert report.final_epoch > 0 and len(report.log) > 0
        assert report.final_shards == svc.n_shards
        assert report.owners.size == len(trace)
        # Every owner is a stable id that existed at dispatch time; the
        # windows account every op exactly once.
        assert sum(w.total_ops for w in report.windows.windows) \
            == len(trace)

    def test_elastic_static_replay_matches_run_service(self, wide_relation):
        """With no rebalancer the windowed loop is just a chunked replay:
        per-op results equal the one-shot service harness."""
        trace = generate_trace(wide_relation, "pk", mix="balanced",
                               n_ops=1500, seed=11)
        a = _wide_service(wide_relation)
        want = run_service(a, trace, CONFIG).results
        b = _wide_service(wide_relation)
        report = run_elastic_service(b, trace, CONFIG, window_ops=256)
        assert report.results == want
        assert report.final_epoch == 0


class TestQueueingModel:
    def test_fifo_backlog_on_one_shard(self):
        owners = np.zeros(3, dtype=np.int64)
        svc = np.array([1.0, 1.0, 1.0])
        resp = queued_response_times(owners, svc, arrival_rate=1e9)
        assert np.allclose(resp, [1.0, 2.0, 3.0])

    def test_independent_shards_do_not_queue_each_other(self):
        owners = np.array([0, 1, 0, 1], dtype=np.int64)
        resp = queued_response_times(owners, np.full(4, 1.0),
                                     arrival_rate=1e9)
        assert np.allclose(resp, [1.0, 1.0, 2.0, 2.0])

    def test_low_rate_means_no_queueing(self):
        owners = np.zeros(4, dtype=np.int64)
        resp = queued_response_times(owners, np.full(4, 0.5),
                                     arrival_rate=1.0)
        assert np.allclose(resp, 0.5)

    def test_load_window_hottest_and_balance(self):
        w = LoadWindow(index=0, epoch=0, ops={1: 5, 2: 5},
                       clock={1: 3.0, 2: 1.0})
        assert w.hottest() == (1, 0.75)
        assert w.load_balance == pytest.approx(1.5)   # max 3 over mean 2
        tie = LoadWindow(index=0, epoch=0, ops={1: 1, 2: 1},
                         clock={2: 1.0, 1: 1.0})
        assert tie.hottest()[0] == 1                  # smallest id wins ties


# ---------------------------------------------------------------------------
# durable shards under the Router
# ---------------------------------------------------------------------------

from repro.persist import (          # noqa: E402  (grouped with their tests)
    make_durable_service,
    recover_service,
)


def test_durable_router_replay_recovers_every_insert(wide_relation,
                                                     tmp_path):
    """A Router replay over durable shards answers like the in-memory
    service, and recovery finds every inserted key."""
    trace = generate_trace(wide_relation, "pk", mix="balanced",
                           n_ops=400, skew="uniform", seed=5)
    ref = run_service(_wide_service(wide_relation), trace, CONFIG)
    svc = make_durable_service(
        wide_relation, "pk", tmp_path, n_shards=4, kind="bf", fpp=FPP,
    )
    report = run_service(svc, trace, CONFIG)
    assert report.results == ref.results
    assert report.io == ref.io
    assert np.array_equal(report.stats.op_latencies,
                          ref.stats.op_latencies)

    inserted = [int(k) for k, op in zip(trace.keys, trace.ops)
                if int(op) == OP_INSERT]
    assert inserted
    recovered = recover_service(tmp_path, wide_relation)
    recovered.bind(CONFIG)
    try:
        results = [recovered.search(k) for k in inserted]
    finally:
        recovered.unbind()
    assert all(r.found for r in results)


# ---------------------------------------------------------------------------
# the serial executor against a static-topology reference
# ---------------------------------------------------------------------------

from repro.service import SerialExecutor  # noqa: E402


class TestExecutorEquivalence:
    """The Router's executor, replaying a trace in slices while the
    topology changes between them, matches one static serial replay in
    results and merged IOStats."""

    @pytest.mark.parametrize("executor,kwargs", [("serial", {})])
    def test_mid_trace_split_and_merge(self, wide_relation, executor,
                                       kwargs):
        trace = generate_trace(wide_relation, "pk", mix="balanced",
                               n_ops=1800, skew="hotspot", seed=77)
        ref = run_service(_wide_service(wide_relation), trace, CONFIG)

        dyn = _wide_service(wide_relation)
        dyn.bind(CONFIG)
        router = Router(dyn, **kwargs)
        assert isinstance(router.executor, SerialExecutor)
        assert executor == "serial"
        got = []
        try:
            cuts = [0, 600, 1200, len(trace)]
            children = None
            for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                got.extend(router.replay(trace.slice(lo, hi))[0])
                if j == 0:
                    victim = max(
                        dyn.shards, key=lambda s: s.index.n_leaves
                    ).shard_id
                    children = dyn.split_shard(victim)
                elif j == 1:
                    dyn.merge_shards(*children)
            dyn_io = dyn.merged_io().snapshot()
        finally:
            router.close()
            dyn.unbind()
        assert dyn.topology_epoch == 2
        assert got == ref.results
        assert dyn_io == ref.io

    def test_split_between_plan_and_run_raises(self, wide_relation):
        """Topology changes belong between replays: a planned shard id
        that a split retired before dispatch raises, naming the id."""
        trace = generate_trace(wide_relation, "pk", mix="balanced",
                               n_ops=200, skew="uniform", seed=3)
        svc = _wide_service(wide_relation)
        svc.bind(CONFIG)
        try:
            router = Router(svc)
            plans = [(svc.table.id_at(s), batch)
                     for s, batch in enumerate(router.plan(trace))]
            victim = plans[1][0]
            svc.split_shard(victim)
            with pytest.raises(RuntimeError, match=f"shard id {victim} "):
                router.executor.run(plans)
        finally:
            svc.unbind()


# ---------------------------------------------------------------------------
# non-integer keys: DBLP-style string columns served end to end
# ---------------------------------------------------------------------------

from repro.workloads import MixedTrace  # noqa: E402
from repro.workloads.mixed import MIXES  # noqa: E402

N_DBLP = 8192


def _dblp_relation(dtype):
    """Sorted DBLP-style keys (``journals/pvldb/K000000``, even numbers
    only, so odd numbers are in-domain misses) as an object-dtype or a
    NumPy ``<U`` column."""
    keys = [f"journals/pvldb/K{2 * i:06d}" for i in range(N_DBLP)]
    column = np.array(keys, dtype=object if dtype == "object" else str)
    return Relation({"key": column}, tuple_size=256, name="dblp")


def _dblp_trace(rel, n_ops, seed, novel_spread=8):
    """Seeded read/insert trace over string keys.

    Reads hit present keys, miss in-domain absent keys, or probe novel
    keys.  Inserts re-index present keys at their own tuple, or index a
    novel ``journals/vldbj/...`` key beyond the domain over the top
    ``novel_spread`` pages — where it routes, so the last BF-leaf fills
    up and splits (the way ``test_batch_write._write_batch_for`` does).
    """
    rng = np.random.default_rng(seed)
    column = rel.columns["key"]
    novel = 0
    ops, keys, tids = [], [], []
    for _ in range(n_ops):
        u = rng.random()
        if u < 0.45:
            ops.append(OP_INSERT)
            keys.append(f"journals/vldbj/K{novel:06d}")
            page = rel.npages - 1 - novel % novel_spread
            tids.append(page * rel.tuples_per_page)
            novel += 1
            continue
        tid = int(rng.integers(0, N_DBLP))
        if u < 0.55:
            ops.append(OP_INSERT)
            keys.append(str(column[tid]))
            tids.append(tid)
            continue
        ops.append(OP_READ)
        tids.append(-1)
        if u < 0.80:
            keys.append(str(column[tid]))
        elif u < 0.90:
            keys.append(f"journals/pvldb/K{2 * tid + 1:06d}")
        else:
            keys.append(f"journals/vldbj/K{int(rng.integers(0, novel + 8)):06d}")
    n = len(ops)
    return MixedTrace(
        ops=np.asarray(ops, dtype=np.int8),
        keys=np.array(keys, dtype=column.dtype),
        tids=np.asarray(tids, dtype=np.int64),
        scan_widths=np.zeros(n, dtype=np.int64),
        mix=MIXES["balanced"], skew="uniform", theta=0.99, seed=seed,
    )


class TestNonIntegerKeys:
    """String keys — Python ``str`` in an object column and NumPy
    ``str_`` in a ``<U`` column — serve through the Router on the bf,
    bplus, hash and fd backends, and every result agrees with a dict
    oracle."""

    @pytest.mark.parametrize("kind", ["bf", "bplus", "hash", "fd"])
    @pytest.mark.parametrize("dtype", ["object", "unicode"])
    def test_router_replay_matches_oracle(self, dtype, kind):
        rel = _dblp_relation(dtype)
        # ~1000 novel inserts overflow the last BF-leaf; the other
        # backends need no split and their sanitizer checks cost
        # ops x keys, so they replay a shorter trace.
        trace = _dblp_trace(rel, n_ops=2400 if kind == "bf" else 400,
                            seed=57)
        service = ShardedIndex.build(rel, "key", n_shards=2, kind=kind,
                                     config=(BFTreeConfig(fpp=FPP)
                                             if kind == "bf" else None),
                                     unique=True)
        leaves_before = service.n_leaves
        report = run_service(service, trace, CONFIG)

        # entries: key -> tids the index holds; data: key -> tids whose
        # tuple really carries the key.  The BF-Tree is approximate and
        # confirms every candidate on its data page, so it answers from
        # ``data``; the exact indexes answer from their entries.
        data = {str(k): {tid} for tid, k in enumerate(rel.columns["key"])}
        entries = {k: set(v) for k, v in data.items()}
        truth = data if kind == "bf" else entries
        for i, result in enumerate(report.results):
            key = str(trace.keys[i])
            if int(trace.ops[i]) == OP_INSERT:
                assert result is None
                entries.setdefault(key, set()).add(int(trace.tids[i]))
                continue
            want = truth.get(key, set())
            assert result.found == bool(want), (i, key)
            assert set(result.tids) == want, (i, key)
        if kind == "bf":
            assert service.n_leaves > leaves_before  # a leaf split ran
