"""The vectorized batch write engine: insert_many/delete_many parity.

The engine's contract mirrors the batch-probe engine's: ``insert_many``
(and ``delete_many``) leave the index in exactly the state the scalar
per-key loop produces — the same leaf structure and filter bitsets
(splits included, at the same points), the same nkeys/tombstone
bookkeeping, the same IOStats counters, the same simulated clock charges
(equal up to float summation order) and the same per-op latencies.  The
property tests drive that contract over random relations and
split-triggering batches; the sharded counterparts live in
``tests/test_service.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import BPlusTree
from repro.core import BFTree, BFTreeConfig, BloomFilter
from repro.core.bloom import page_to_rows
from repro.storage import Relation, build_stack

sorted_keys = st.lists(
    st.integers(min_value=0, max_value=10**4), min_size=8, max_size=200
).map(sorted)


def _relation_from(keys):
    return Relation({"k": np.asarray(keys, dtype=np.int64)}, tuple_size=256)


def _tree_fingerprint(tree):
    """Everything the batch/scalar identity is judged on: the full leaf
    chain with filter bitsets (or counters) and all bookkeeping."""
    out = []
    for leaf in tree.leaves_in_order():
        n = leaf.nfilters
        filters = (list(leaf.counts), page_to_rows(leaf.page, n).tobytes(),
                   None if leaf.counters is None
                   else leaf.counters[:n].tobytes())
        out.append((
            leaf.node_id, leaf.min_pid, leaf.min_key, leaf.max_key,
            leaf.nkeys, leaf.extra_inserts, leaf.pages_covered,
            leaf.spill_back_pages, sorted(leaf.deleted_keys), filters,
        ))
    return out


def _write_batch_for(rel, rng, n_ops, novel_share=0.25, novel_spread=8):
    """A (keys, pids) insert batch: mostly re-inserts of live keys at
    their true pages, plus a slice of novel keys beyond the domain
    (indexed over the top ``novel_spread`` pages, where they route, so
    no single group filter saturates) to trigger splits."""
    values = np.asarray(rel.columns["k"])
    hi = int(values.max())
    keys, pids = [], []
    novel = hi + 1
    spread = min(novel_spread, rel.npages)
    for _ in range(n_ops):
        if rng.random() < novel_share:
            keys.append(novel)
            pids.append(rel.npages - 1 - (novel - hi) % spread)
            novel += 1
        else:
            key = int(values[rng.integers(0, len(values))])
            keys.append(key)
            pids.append(rel.page_of(int(np.searchsorted(values, key))))
    return keys, pids


def _replay_inserts(tree, keys, pids, batch):
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    sink: list[float] = []
    try:
        if batch:
            tree.insert_many(keys, pids, latency_sink=sink)
        else:
            for key, pid in zip(keys, pids):
                begin = stack.elapsed()
                tree.insert(key, pid)
                sink.append(stack.elapsed() - begin)
    finally:
        tree.unbind()
    return sink, stack.stats.snapshot(), stack.elapsed()


class TestInsertManyEqualsScalarLoop:
    @given(keys=sorted_keys, fpp=st.sampled_from([0.05, 1e-3]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_state_io_clock_latencies(self, keys, fpp):
        rel = _relation_from(keys)
        rng = np.random.default_rng(len(keys))
        batch_keys, batch_pids = _write_batch_for(rel, rng, 120)
        scalar_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=fpp))
        batch_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=fpp))
        s_lat, s_io, s_clock = _replay_inserts(
            scalar_tree, batch_keys, batch_pids, batch=False
        )
        b_lat, b_io, b_clock = _replay_inserts(
            batch_tree, batch_keys, batch_pids, batch=True
        )
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)
        assert b_io == s_io
        assert math.isclose(b_clock, s_clock, rel_tol=1e-9)
        assert np.allclose(b_lat, s_lat, rtol=1e-9)

    def test_split_triggering_batch(self):
        """A batch heavy enough in novel keys to force splits mid-batch
        splits at the same points as the scalar loop."""
        rel = _relation_from(list(range(2048)))
        scalar_tree = BFTree.bulk_load(
            rel, "k", BFTreeConfig(fpp=1e-3), unique=True
        )
        batch_tree = BFTree.bulk_load(
            rel, "k", BFTreeConfig(fpp=1e-3), unique=True
        )
        before = scalar_tree.n_leaves
        rng = np.random.default_rng(3)
        keys, pids = _write_batch_for(rel, rng, 3000, novel_share=0.5)
        _replay_inserts(scalar_tree, keys, pids, batch=False)
        _replay_inserts(batch_tree, keys, pids, batch=True)
        assert scalar_tree.n_leaves > before        # splits happened
        assert _tree_fingerprint(batch_tree) == \
            _tree_fingerprint(scalar_tree)

    def test_warm_mode_with_splits(self):
        """Regression: under a warm buffer pool, duplicates queued on one
        leaf and flushed after a split elsewhere used to replay pool
        *misses* the scalar loop never paid (the split's inner-node
        write invalidates the pooled parent).  The batch path now
        flushes every queue into the pre-split state first."""
        rel = _relation_from(list(range(4096)))
        rng = np.random.default_rng(5)
        batch = []
        novel = iter(range(5000, 9000))
        for j in range(3000):
            batch.append(next(novel) if j % 3 == 0
                         else int(rng.integers(0, 4096)))

        def pid_for(tree, key):
            if key < 4096:
                return rel.page_of(key)
            cur = tree.leaves_in_order()[-1]
            return cur.max_pid - (key % min(16, cur.pages_covered))

        scalar_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=1e-3),
                                       unique=True)
        batch_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=1e-3),
                                      unique=True)
        stack_s, stack_b = build_stack("MEM/SSD"), build_stack("MEM/SSD")
        scalar_tree.bind(stack_s, warm=True)
        batch_tree.bind(stack_b, warm=True)
        before = scalar_tree.n_leaves
        s_lat, pids = [], []
        for key in batch:
            pid = pid_for(scalar_tree, key)
            pids.append(pid)
            begin = stack_s.elapsed()
            scalar_tree.insert(key, pid)
            s_lat.append(stack_s.elapsed() - begin)
        b_lat: list[float] = []
        batch_tree.insert_many(batch, pids, latency_sink=b_lat)
        scalar_tree.unbind()
        batch_tree.unbind()
        assert scalar_tree.n_leaves > before     # splits were exercised
        assert _tree_fingerprint(batch_tree) == \
            _tree_fingerprint(scalar_tree)
        assert stack_b.stats.snapshot() == stack_s.stats.snapshot()
        assert math.isclose(stack_b.elapsed(), stack_s.elapsed(),
                            rel_tol=1e-9)
        assert np.allclose(b_lat, s_lat, rtol=1e-9)

    def test_saturated_group_filter_still_splits(self):
        """Regression: a group filter flooded with novel keys saturates,
        and its membership test then calls *everything* a re-insert —
        without the trust ceiling nkeys would freeze and the leaf would
        never split, silently degrading fpp toward 1."""
        rel = _relation_from(list(range(2048)))
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=1e-3),
                                unique=True)
        before = tree.n_leaves
        for i in range(4000):
            tree.insert(10_000 + i, rel.npages - 1)
        assert tree.n_leaves > before

    def test_post_insert_probes_identical(self, pk_relation):
        rng = np.random.default_rng(11)
        scalar_tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
        )
        batch_tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
        )
        keys = rng.integers(0, 8192, size=600).tolist()
        pids = [pk_relation.page_of(k) for k in keys]
        _replay_inserts(scalar_tree, keys, pids, batch=False)
        _replay_inserts(batch_tree, keys, pids, batch=True)
        probes = list(range(0, 8192, 61))
        assert ([batch_tree.search(k) for k in probes]
                == [scalar_tree.search(k) for k in probes])

    def test_counting_filter_kind(self, pk_relation):
        rng = np.random.default_rng(13)
        config = BFTreeConfig(fpp=1e-2, filter_kind="counting")
        scalar_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                       unique=True)
        batch_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                      unique=True)
        keys = rng.integers(0, 8192, size=400).tolist()
        pids = [pk_relation.page_of(k) for k in keys]
        s_lat, s_io, s_clock = _replay_inserts(
            scalar_tree, keys, pids, batch=False
        )
        b_lat, b_io, b_clock = _replay_inserts(
            batch_tree, keys, pids, batch=True
        )
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)
        assert b_io == s_io
        assert np.allclose(b_lat, s_lat, rtol=1e-9)

    def test_tombstoned_keys_revived_identically(self, pk_relation):
        trees = []
        for _ in range(2):
            tree = BFTree.bulk_load(
                pk_relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
            )
            for key in range(0, 512, 3):
                tree.delete(key)
            trees.append(tree)
        scalar_tree, batch_tree = trees
        keys = list(range(0, 512, 6))
        pids = [pk_relation.page_of(k) for k in keys]
        _replay_inserts(scalar_tree, keys, pids, batch=False)
        _replay_inserts(batch_tree, keys, pids, batch=True)
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)

    def test_empty_and_mismatched_input(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
        )
        sink: list[float] = []
        tree.insert_many([], [], latency_sink=sink)
        assert sink == []
        with pytest.raises(ValueError, match="same length"):
            tree.insert_many([1, 2], [0])

    def test_unbuilt_tree_raises(self, pk_relation):
        tree = BFTree(pk_relation, "pk")
        with pytest.raises(LookupError):
            tree.insert_many([1], [0])


class TestDeleteManyEqualsScalarLoop:
    @given(keys=sorted_keys)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_plain_tombstones(self, keys):
        rel = _relation_from(keys)
        rng = np.random.default_rng(len(keys) + 1)
        targets = rng.integers(0, max(keys) + 50, size=60).tolist()
        scalar_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        batch_tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        stack_s, stack_b = build_stack("MEM/SSD"), build_stack("MEM/SSD")
        scalar_tree.bind(stack_s)
        batch_tree.bind(stack_b)
        s_out = [scalar_tree.delete(k) for k in targets]
        b_sink: list[float] = []
        b_out = batch_tree.delete_many(targets, latency_sink=b_sink)
        scalar_tree.unbind()
        batch_tree.unbind()
        assert b_out == s_out
        assert len(b_sink) == len(targets)
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)
        assert stack_b.stats.snapshot() == stack_s.stats.snapshot()
        assert math.isclose(stack_b.elapsed(), stack_s.elapsed(),
                            rel_tol=1e-9)

    def test_counting_inplace_deletes(self, pk_relation):
        config = BFTreeConfig(fpp=1e-2, filter_kind="counting")
        scalar_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                       unique=True)
        batch_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                      unique=True)
        rng = np.random.default_rng(17)
        targets = rng.integers(0, 9000, size=300).tolist()
        pids = [pk_relation.page_of(min(k, 8191)) for k in targets]
        s_out = [scalar_tree.delete(k, pid=p)
                 for k, p in zip(targets, pids)]
        b_out = batch_tree.delete_many(targets, pids)
        assert b_out == s_out
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)
        # Outcomes surface the mechanism: in-place, never tombstoned.
        assert all(not o.tombstoned for o in b_out)

    def test_mixed_pid_availability(self, pk_relation):
        """Counting tree, pids only for half the batch: the other half
        falls back to (surfaced) tombstoning, same as scalar."""
        config = BFTreeConfig(fpp=1e-2, filter_kind="counting")
        scalar_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                       unique=True)
        batch_tree = BFTree.bulk_load(pk_relation, "pk", config,
                                      unique=True)
        targets = list(range(100, 160))
        pids = [pk_relation.page_of(k) if k % 2 else None for k in targets]
        s_out = [scalar_tree.delete(k, pid=p)
                 for k, p in zip(targets, pids)]
        b_out = batch_tree.delete_many(targets, pids)
        assert b_out == s_out
        assert any(o.tombstoned for o in b_out)
        assert any(not o.tombstoned for o in b_out)
        assert _tree_fingerprint(batch_tree) == _tree_fingerprint(scalar_tree)


class TestFilterAndLeafLayers:
    def test_bloom_add_positions_round_trip(self):
        from repro.core.bloom import row_set_positions, row_test_positions
        from repro.core.hashing import bloom_positions

        bf = BloomFilter(256, 4, seed=2)
        positions = bloom_positions(1234, bf.k, bf.nbits, bf.seed)
        assert not row_test_positions(bf._words, positions)
        row_set_positions(bf._words, positions)
        assert row_test_positions(bf._words, positions)
        assert bf.might_contain(1234)

    def test_bptree_insert_many_parity(self, dup_relation):
        scalar_tree = BPlusTree.bulk_load(dup_relation, "att1")
        batch_tree = BPlusTree.bulk_load(dup_relation, "att1")
        stack_s, stack_b = build_stack("MEM/SSD"), build_stack("MEM/SSD")
        scalar_tree.bind(stack_s)
        batch_tree.bind(stack_b)
        rng = np.random.default_rng(23)
        values = np.asarray(dup_relation.columns["att1"])
        keys = values[rng.integers(0, len(values), size=300)].tolist()
        tids = [int(np.searchsorted(values, k)) for k in keys]
        s_sink: list[float] = []
        for key, tid in zip(keys, tids):
            begin = stack_s.elapsed()
            scalar_tree.insert(key, tid)
            s_sink.append(stack_s.elapsed() - begin)
        b_sink: list[float] = []
        batch_tree.insert_many(keys, tids, latency_sink=b_sink)
        scalar_tree.unbind()
        batch_tree.unbind()
        assert stack_b.stats.snapshot() == stack_s.stats.snapshot()
        assert np.allclose(b_sink, s_sink, rtol=1e-9)
        chain_s = [(l.keys, l.ridlists) for l in
                   scalar_tree.leaves_in_order()]
        chain_b = [(l.keys, l.ridlists) for l in
                   batch_tree.leaves_in_order()]
        assert chain_b == chain_s
