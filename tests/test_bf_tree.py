"""Unit and integration tests for the BF-Tree index itself."""

import numpy as np
import pytest

from repro.core import BFTree, BFTreeConfig
from repro.storage import Relation, build_stack


def _pk_tree(relation, fpp=0.01):
    return BFTree.bulk_load(relation, "pk", BFTreeConfig(fpp=fpp), unique=True)


class TestConfig:
    def test_invalid_fpp(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ValueError):
                BFTreeConfig(fpp=bad)

    def test_invalid_hash_count(self):
        with pytest.raises(ValueError):
            BFTreeConfig(hash_count=0)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            BFTreeConfig(pages_per_bf=0)


class TestBulkLoad:
    def test_rejects_unsorted(self):
        rel = Relation(
            {"k": np.asarray([3, 1, 2], dtype=np.int64)}, tuple_size=256
        )
        with pytest.raises(ValueError, match="not ordered"):
            BFTree.bulk_load(rel, "k")

    def test_rejects_empty(self):
        rel = Relation({"k": np.empty(0, dtype=np.int64)}, tuple_size=256)
        with pytest.raises(ValueError):
            BFTree.bulk_load(rel, "k")

    def test_leaf_chain_covers_all_pages(self, pk_relation):
        tree = _pk_tree(pk_relation)
        chain = tree.leaves_in_order()
        assert chain[0].min_pid == 0
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.min_pid == prev.min_pid + prev.pages_covered
        last = chain[-1]
        assert last.min_pid + last.pages_covered == pk_relation.npages

    def test_leaf_key_ranges_disjoint(self, pk_relation):
        chain = _pk_tree(pk_relation).leaves_in_order()
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.max_key < nxt.min_key

    def test_size_shrinks_with_fpp(self, pk_relation):
        loose = _pk_tree(pk_relation, fpp=0.2)
        tight = _pk_tree(pk_relation, fpp=1e-8)
        assert loose.size_pages < tight.size_pages

    def test_granularity_auto_for_high_cardinality(self):
        """avgcard >> tuples/page -> one filter per multi-page group."""
        keys = np.repeat(np.arange(16, dtype=np.int64), 512)
        rel = Relation({"k": keys}, tuple_size=256)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        assert tree.geometry.pages_per_bf > 1

    def test_explicit_granularity(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=0.01, pages_per_bf=4),
            unique=True,
        )
        assert tree.geometry.pages_per_bf == 4


class TestSearch:
    def test_every_key_found(self, pk_relation):
        """No false negatives — the BF-Tree's correctness invariant."""
        tree = _pk_tree(pk_relation)
        stack = build_stack("MEM/SSD")
        tree.bind(stack)
        for key in range(0, 8192, 97):
            result = tree.search(key)
            assert result.found, key
            assert result.matches == 1
            assert result.tids == [key]

    def test_miss_below_and_above(self, pk_relation):
        tree = _pk_tree(pk_relation)
        tree.bind(build_stack("MEM/SSD"))
        assert not tree.search(-1).found
        assert not tree.search(8192).found

    def test_miss_costs_no_data_io(self, pk_relation):
        tree = _pk_tree(pk_relation)
        stack = build_stack("MEM/HDD")
        tree.bind(stack)
        tree.search(999_999)
        assert stack.stats.data_reads == 0

    def test_unbound_search_works(self, pk_relation):
        tree = _pk_tree(pk_relation)
        assert tree.search(100).found

    def test_duplicates_all_returned(self, dup_relation):
        tree = BFTree.bulk_load(dup_relation, "att1", BFTreeConfig(fpp=1e-4))
        tree.bind(build_stack("MEM/SSD"))
        att1 = np.asarray(dup_relation.columns["att1"])
        key = int(att1[len(att1) // 2])
        expected = int(np.count_nonzero(att1 == key))
        result = tree.search(key)
        assert result.matches == expected

    def test_false_reads_counted(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=0.2)
        stack = build_stack("MEM/SSD")
        tree.bind(stack)
        total_false = 0
        for key in range(0, 8192, 37):
            total_false += tree.search(key).false_pages
        assert total_false > 0
        assert stack.stats.false_reads == total_false

    def test_unique_stops_early(self, pk_relation):
        """With fpp=0.2 a unique probe reads < the full candidate list."""
        tree = _pk_tree(pk_relation, fpp=0.2)
        tree.bind(build_stack("MEM/SSD"))
        leaf = tree.leaves_in_order()[0]
        result = tree.search(1)   # first key: nearly no prior candidates
        assert result.pages_read < leaf.nfilters


class TestInsert:
    def test_insert_then_found(self, pk_relation):
        tree = _pk_tree(pk_relation)
        tree.insert(8192, pk_relation.npages - 1)
        leaf = tree.leaves_in_order()[-1]
        assert leaf.max_key == 8192

    def test_split_on_capacity(self):
        keys = np.arange(4096, dtype=np.int64)
        rel = Relation({"pk": keys}, tuple_size=256)
        tree = BFTree.bulk_load(
            rel, "pk", BFTreeConfig(fpp=1e-3), unique=True
        )
        before = tree.n_leaves
        leaf = tree.leaves_in_order()[-1]
        headroom = leaf.key_capacity - leaf.nkeys
        # Insert *novel* keys (beyond the domain, routed to the last
        # leaf).  Pids stay order-consistent with the keys — the top few
        # pages of the live last leaf — and are spread over several
        # filters so no single one saturates into swallowing the novel
        # keys as false duplicates.
        for i in range(3 * (headroom + 10)):
            cur = tree.leaves_in_order()[-1]
            tree.insert(4096 + i,
                        cur.max_pid - (i % min(16, cur.pages_covered)))
            if tree.n_leaves > before:
                break
        assert tree.n_leaves > before

    def test_duplicate_reinserts_never_split(self):
        """Regression: re-indexing already-present keys used to inflate
        nkeys and trigger premature splits through the capacity
        pre-check, even though the filter bits never changed."""
        keys = np.arange(4096, dtype=np.int64)
        rel = Relation({"pk": keys}, tuple_size=256)
        tree = BFTree.bulk_load(
            rel, "pk", BFTreeConfig(fpp=1e-3), unique=True
        )
        before = tree.n_leaves
        leaf = tree.leaves_in_order()[0]
        nkeys_before = leaf.nkeys
        for _ in range(3):
            for key in range(leaf.min_key, leaf.max_key + 1, 7):
                tree.insert(key, rel.page_of(key))
        assert tree.n_leaves == before
        assert leaf.nkeys == nkeys_before

    def test_insert_overflow_degrades_fpp(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=0.01)
        leaf = tree.leaves_in_order()[-1]
        assert leaf.effective_fpp() == pytest.approx(0.01)
        # Index novel keys (beyond the domain, landing on the last leaf,
        # spread over its pages) well past its nominal capacity, without
        # splitting: Equation 14 then governs the leaf's effective fpp.
        for i in range(2 * leaf.key_capacity):
            tree.insert_overflow(
                8192 + i, leaf.min_pid + (i % leaf.pages_covered)
            )
        assert leaf.extra_inserts > 0
        assert leaf.effective_fpp() > 0.01
        assert tree.effective_fpp() > 0.01

    def test_insert_into_empty_tree_raises(self, pk_relation):
        tree = BFTree(pk_relation, "pk")
        with pytest.raises(LookupError):
            tree.insert(1, 0)


class TestDelete:
    def test_deleted_key_not_found(self, pk_relation):
        tree = _pk_tree(pk_relation)
        tree.bind(build_stack("MEM/SSD"))
        assert tree.search(55).found
        assert tree.delete(55)
        assert not tree.search(55).found

    def test_delete_out_of_range(self, pk_relation):
        tree = _pk_tree(pk_relation)
        assert not tree.delete(10**9)

    def test_other_keys_unaffected(self, pk_relation):
        tree = _pk_tree(pk_relation)
        tree.delete(55)
        assert tree.search(54).found
        assert tree.search(56).found


class TestSplitLeaf:
    def test_split_preserves_searchability(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=0.01)
        victim = tree.leaves_in_order()[1]
        lo, hi = victim.min_key, victim.max_key
        tree._split_leaf(victim)
        tree.bind(build_stack("MEM/SSD"))
        for key in range(lo, hi + 1, 53):
            assert tree.search(key).found, key

    def test_split_increases_leaf_count(self, pk_relation):
        tree = _pk_tree(pk_relation)
        before = tree.n_leaves
        tree._split_leaf(tree.leaves_in_order()[0])
        assert tree.n_leaves == before + 1

    def test_resplit_skips_keys_of_a_shared_page(self, pk_relation):
        # A split whose median is not page-aligned leaves its children
        # sharing a page; re-splitting either child must not pull in the
        # sibling's keys on that page.
        tree = _pk_tree(pk_relation, fpp=0.01)
        left, right = tree._split_leaf(tree.leaves_in_order()[1])
        assert left.max_pid == right.min_pid
        tree._split_leaf(right)
        tree._split_leaf(left)
        leaves = tree.leaves_in_order()
        for prev, nxt in zip(leaves, leaves[1:]):
            assert prev.max_key < nxt.min_key
        tree.bind(build_stack("MEM/SSD"))
        lo, hi = left.max_key - 20, right.min_key + 20
        assert tree.range_scan(lo, hi).matches == hi - lo + 1

    def test_single_key_leaf_cannot_split(self):
        keys = np.zeros(16, dtype=np.int64)
        rel = Relation({"k": keys}, tuple_size=256)
        tree = BFTree.bulk_load(rel, "k")
        with pytest.raises(ValueError):
            tree._split_leaf(tree.leaves_in_order()[0])


class TestRangeScan:
    def test_counts_match_ground_truth(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=1e-4)
        tree.bind(build_stack("MEM/SSD"))
        result = tree.range_scan(1000, 1999)
        assert result.matches == 1000

    def test_invalid_range(self, pk_relation):
        tree = _pk_tree(pk_relation)
        with pytest.raises(ValueError):
            tree.range_scan(10, 5)

    def test_reads_at_least_matching_pages(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=0.01)
        tree.bind(build_stack("MEM/SSD"))
        result = tree.range_scan(0, 8191)
        assert result.pages_read >= pk_relation.npages

    def test_boundary_overhead_shrinks_with_fpp(self, pk_relation):
        loose = _pk_tree(pk_relation, fpp=0.2)
        tight = _pk_tree(pk_relation, fpp=1e-8)
        loose.bind(build_stack("MEM/SSD"))
        tight.bind(build_stack("MEM/SSD"))
        lo, hi = 3000, 3300
        assert tight.range_scan(lo, hi).pages_read <= loose.range_scan(
            lo, hi
        ).pages_read

    def test_enumerated_boundaries_read_fewer_pages(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=1e-4)
        tree.bind(build_stack("MEM/SSD"))
        full = tree.range_scan(3000, 3100)
        opt = tree.range_scan(3000, 3100, enumerate_boundaries=True)
        assert opt.matches == full.matches == 101
        assert opt.pages_read <= full.pages_read


class TestIntersection:
    def test_intersection_probe(self, dup_relation):
        t1 = BFTree.bulk_load(dup_relation, "att1", BFTreeConfig(fpp=1e-4))
        t2 = BFTree.bulk_load(dup_relation, "pk", BFTreeConfig(fpp=1e-4),
                              unique=True)
        t1.bind(build_stack("MEM/SSD"))
        t2.bind(build_stack("MEM/SSD"))
        pk = 100
        att1 = int(np.asarray(dup_relation.columns["att1"])[pk])
        result = t1.intersect_probe(t2, att1, pk)
        assert result.found
        assert result.matches == 1

    def test_intersection_requires_same_relation(self, pk_relation,
                                                 dup_relation):
        t1 = _pk_tree(pk_relation)
        t2 = BFTree.bulk_load(dup_relation, "att1")
        with pytest.raises(ValueError):
            t1.intersect_probe(t2, 1, 1)


class TestSizeAccounting:
    def test_size_pages_components(self, pk_relation):
        tree = _pk_tree(pk_relation)
        assert tree.size_pages == tree.n_leaves + tree.inner.n_internal_nodes

    def test_height_matches_inner(self, pk_relation):
        tree = _pk_tree(pk_relation)
        assert tree.height == tree.inner.height

    def test_effective_fpp_nominal_after_bulk_load(self, pk_relation):
        tree = _pk_tree(pk_relation, fpp=0.01)
        assert tree.effective_fpp() == pytest.approx(0.01, rel=0.2)

    def test_size_bytes(self, pk_relation):
        tree = _pk_tree(pk_relation)
        assert tree.size_bytes == tree.size_pages * 4096
