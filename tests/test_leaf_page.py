"""The BF-leaf page matrix: one ``(capacity, words_per_filter)`` uint64
matrix per plain leaf, each filter's words a row view of it.

Covers the sanitizer invariant (filter ``i`` aliases page row ``i``, rows
past ``nfilters`` are zero) after every structural change that creates,
grows or moves filters, plus the page-level kernels against their
per-filter counterparts.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import StructuralCorruption, check_tree
from repro.core import BFTree, BFTreeConfig
from repro.core.bf_leaf import BFLeaf, BFLeafGeometry
from repro.core.bloom import BloomFilter
from repro.service import ShardedIndex
from repro.storage import Relation, build_stack


def _pk_tree(n=4096, fpp=1e-3, **cfg):
    rel = Relation({"pk": np.arange(n, dtype=np.int64)}, tuple_size=256)
    return rel, BFTree.bulk_load(rel, "pk", BFTreeConfig(fpp=fpp, **cfg),
                                 unique=True)


def _groups(leaf, key):
    """Filters of ``leaf`` whose membership test matches ``key``."""
    matrix = leaf._match_matrix(leaf.hash_batch([key]))
    return np.nonzero(matrix[0])[0].tolist()


def _assert_paged(tree):
    """The sanitizer check passes and every plain leaf has a page."""
    check_tree(tree)
    for leaf in tree.leaves.values():
        if leaf.filters:
            assert leaf.page is not None
            assert leaf.page.shape[1] == (leaf.geometry.bits_per_bf + 63) // 64


# ======================================================================
# the invariant holds after every structural change
# ======================================================================
class TestInvariantHolds:
    def test_bulk_load(self, pk_relation, dup_relation, tpch_relation):
        _assert_paged(BFTree.bulk_load(pk_relation, "pk", unique=True))
        _assert_paged(BFTree.bulk_load(
            dup_relation, "att1", BFTreeConfig(fpp=0.01, pages_per_bf=3)))
        _assert_paged(BFTree.bulk_load(
            tpch_relation, "commitdate", BFTreeConfig(fpp=0.01),
            ordered=False))

    def test_insert_driven_split(self):
        rel, tree = _pk_tree()
        before = tree.n_leaves
        for i in range(4000):
            cur = tree.leaves_in_order()[-1]
            tree.insert(4096 + i,
                        cur.max_pid - (i % min(16, cur.pages_covered)))
            if tree.n_leaves > before:
                break
        assert tree.n_leaves > before
        _assert_paged(tree)
        tree.bind(build_stack("MEM/SSD"))
        assert tree.search(4000).found

    def test_spanning_key_oversized_growth(self):
        """An add past the leaf budget grows the geometry, and the page
        with it: existing rows move, filters are re-pointed."""
        rel, tree = _pk_tree()
        last = tree.leaves_in_order()[-1]
        budget = last.geometry.max_filters
        old_page = last.page
        probes = [last.min_key, last.max_key - 100, last.max_key]
        before = [_groups(last, k) for k in probes]
        far = last.min_pid + budget + 5
        tree.insert_overflow(last.max_key, far)
        assert last.nfilters == budget + 6 > old_page.shape[0]
        assert last.page is not old_page
        _assert_paged(tree)
        # Everything indexed before the growth is still found, and the
        # spanning key's new far group too.
        after = [_groups(last, k) for k in probes]
        assert after[:2] == before[:2]
        assert after[2] == before[2] + [last.group_of(far)]

    def test_oversized_growth_through_insert_split(self):
        """A pid far beyond the target leaf's budget splits the leaf and
        then grows the child that must cover it."""
        rel, tree = _pk_tree()
        last = tree.leaves_in_order()[-1]
        far = last.min_pid + 3 * last.geometry.max_filters
        tree.insert(10**6, far)
        grown = tree.leaves_in_order()[-1]
        assert grown.group_of(far) >= tree.geometry.max_filters
        _assert_paged(tree)

    def test_snapshot_restore(self):
        rel, tree = _pk_tree()
        tree.insert_overflow(tree.leaves_in_order()[-1].max_key,
                             tree.leaves_in_order()[-1].min_pid
                             + tree.geometry.max_filters + 2)
        tree.delete(17)
        fresh = BFTree(rel, "pk", tree.config, unique=True)
        fresh.restore_state(tree.snapshot_state())
        _assert_paged(fresh)
        for a, b in zip(tree.leaves_in_order(), fresh.leaves_in_order()):
            assert a.page is not b.page
            n = a.nfilters
            assert np.array_equal(a.page[:n], b.page[:n])

    def test_service_split_and_merge(self):
        rel = Relation({"pk": np.arange(32768, dtype=np.int64)},
                       tuple_size=256)
        svc = ShardedIndex.build(rel, "pk", n_shards=2, kind="bf",
                                 unique=True, fpp=1e-3)
        victim = max(svc.shards, key=lambda s: s.index.n_leaves)
        left, right = svc.split_shard(victim.shard_id)
        for shard in svc.shards:
            _assert_paged(shard.index)
        merged = svc.merge_shards(left, right)
        for shard in svc.shards:
            _assert_paged(shard.index)
        assert merged in {s.shard_id for s in svc.shards}


# ======================================================================
# the invariant catches broken pages
# ======================================================================
class TestInvariantFires:
    def test_filter_detached_from_page(self):
        _, tree = _pk_tree()
        leaf = tree.leaves_in_order()[0]
        leaf.filters[3]._words = leaf.filters[3]._words.copy()
        with pytest.raises(StructuralCorruption, match="not row 3"):
            check_tree(tree)

    def test_filter_on_wrong_row(self):
        _, tree = _pk_tree()
        leaf = tree.leaves_in_order()[0]
        leaf.filters[2]._words = leaf.page[5]
        with pytest.raises(StructuralCorruption, match="not row 2"):
            check_tree(tree)

    def test_leaves_with_differing_hash_geometry(self):
        from dataclasses import replace

        _, tree = _pk_tree()
        leaf = tree.leaves_in_order()[1]
        leaf.geometry = replace(leaf.geometry,
                                hash_count=leaf.geometry.hash_count + 1)
        with pytest.raises(StructuralCorruption,
                           match="disagree on .hash_count, bits_per_bf"):
            check_tree(tree)

    def test_bits_in_unused_row(self):
        _, tree = _pk_tree()
        leaf = next(l for l in tree.leaves_in_order()
                    if l.nfilters < l.page.shape[0])
        leaf.page[leaf.nfilters, 0] = 1
        with pytest.raises(StructuralCorruption, match="hold set bits"):
            check_tree(tree)


# ======================================================================
# page kernels equal their per-filter counterparts
# ======================================================================
def _leaf(max_filters=8):
    geo = BFLeafGeometry.plan(0.01, 16.0)
    geo = BFLeafGeometry(**{**vars(geo), "max_filters": max_filters})
    return BFLeaf(node_id=3, geometry=geo, min_pid=0)


class TestPageKernels:
    def test_writes_through_filters_land_in_page(self):
        leaf = _leaf()
        leaf.add(42, 2)
        assert leaf.nfilters == 3
        assert leaf.page[2].any() and not leaf.page[:2].any()
        assert np.array_equal(leaf.page[2], leaf.filters[2]._words)

    def test_constructor_filters_are_copied_onto_a_page(self):
        geo = _leaf().geometry
        filters = [BloomFilter(geo.bits_per_bf, geo.hash_count, seed=9)
                   for _ in range(3)]
        filters[1].add(7)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0, filters=filters)
        assert leaf.page.shape == (geo.max_filters,
                                   (geo.bits_per_bf + 63) // 64)
        assert _groups(leaf, 7) == [1]

    def test_match_matrix_equals_per_filter_tests(self):
        leaf = _leaf()
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 10**6, size=200)
        for j, key in enumerate(keys.tolist()):
            leaf.add(key, j % 8)
        probes = np.concatenate([keys[:50], rng.integers(0, 10**6, 50)])
        positions = leaf.hash_batch(probes)
        matrix = leaf._match_matrix(positions)
        expected = np.stack(
            [f.test_positions(positions) for f in leaf.filters], axis=1
        )
        assert np.array_equal(matrix, expected)

    def test_add_pages_equals_page_by_page(self):
        pages = [np.array([1, 5, 9]), np.array([9, 12]), np.array([20])]
        pids = [0, 1, 3]
        one = _leaf()
        for keys, pid in zip(pages, pids):
            one.add_pages(keys, np.full(len(keys), pid))
        run = _leaf()
        run.add_pages(np.concatenate(pages),
                      np.repeat(pids, [len(p) for p in pages]))
        assert np.array_equal(one.page, run.page)
        assert [f.count for f in one.filters] == \
            [f.count for f in run.filters]
        assert (one.nkeys, one.min_key, one.max_key, one.pages_covered) \
            == (run.nkeys, run.min_key, run.max_key, run.pages_covered)

    def test_hash_rows_equal_per_leaf_hashing(self):
        leaves = [_leaf(), BFLeaf(node_id=2**63 + 11,
                                  geometry=_leaf().geometry, min_pid=0)]
        leaves[0].filter_seed = 77
        keys = [5, -3, 2**40, 8, 9]
        which = [0, 1, 0, 0, 1]
        got = BFLeaf.hash_rows(keys, leaves, which)
        for key, t, row in zip(keys, which, got):
            assert np.array_equal(row, leaves[t].hash_batch([key])[0])

    def test_duplicate_flags_equal_scalar_verdicts(self):
        leaf = _leaf()
        for key in range(60):
            leaf.add(key, key % 4)
        keys = list(range(40, 100))
        groups = np.array([k % 4 for k in keys])
        positions = leaf.hash_batch(keys)
        flags = leaf.duplicate_flags(groups, positions)
        assert flags.tolist() == [
            leaf.duplicate_prehashed(k % 4, positions[j].tolist())
            for j, k in enumerate(keys)
        ]


# ======================================================================
# non-integer keys through the fused batch probe
# ======================================================================
@pytest.mark.parametrize("encode", [str, str.encode])
def test_string_keys_batch_probe_equals_scalar(encode):
    """A string-keyed tree bulk-loads through the per-leaf hash pass and
    its fused ``search_many`` canonicalizes keys exactly like ``search``
    (same results, same I/O)."""
    names = sorted(encode(f"user{i:05d}") for i in range(0, 6000, 2))
    rel = Relation({"name": np.array(names)}, tuple_size=256)
    tree = BFTree.bulk_load(rel, "name", BFTreeConfig(fpp=0.01),
                            unique=True)
    check_tree(tree)
    probes = [encode(f"user{i:05d}") for i in range(0, 6000, 37)]
    stack_a, stack_b = build_stack("MEM/SSD"), build_stack("MEM/SSD")
    tree.bind(stack_a)
    scalar = [tree.search(k) for k in probes]
    tree.bind(stack_b)
    batch = tree.search_many(probes)
    assert batch == scalar
    assert stack_a.stats.snapshot() == stack_b.stats.snapshot()
    assert sum(r.found for r in batch) == sum(
        int(p[4:]) % 2 == 0 for p in probes
    )
