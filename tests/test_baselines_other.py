"""Unit tests for hash index, FD-Tree, SILT and sorted-file search."""

import numpy as np
import pytest

from repro.baselines import (
    BPlusTree,
    FDTree,
    FDTreeConfig,
    HashIndex,
    SiltConfig,
    SiltStore,
    SortedFileSearch,
)
from repro.storage import Relation, build_stack


class TestHashIndex:
    def test_all_keys_found(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk", unique=True)
        index.bind(build_stack("MEM/SSD"))
        for key in range(0, 8192, 111):
            assert index.search(key).found

    def test_miss(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk")
        assert not index.search(10**9).found

    def test_duplicates(self, dup_relation):
        index = HashIndex.build(dup_relation, "att1")
        index.bind(build_stack("MEM/SSD"))
        att1 = np.asarray(dup_relation.columns["att1"])
        key = int(att1[500])
        assert index.search(key).matches == int(np.count_nonzero(att1 == key))

    def test_single_data_read_for_unique(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk", unique=True)
        stack = build_stack("MEM/HDD")
        index.bind(stack)
        index.search(100)
        assert stack.stats.data_reads == 1

    def test_insert_delete(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk")
        index.insert(99999, 0)
        assert index.search(99999).found
        assert index.delete(99999)
        assert not index.search(99999).found

    def test_delete_specific_rid(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk")
        index.insert(5, 77)
        assert index.delete(5, tid=77)
        assert index.search(5).matches == 1

    def test_size_includes_load_factor(self, pk_relation):
        index = HashIndex.build(pk_relation, "pk")
        raw = 8192 * 16
        assert index.size_bytes == int(raw / HashIndex.LOAD_FACTOR)


class TestFDTree:
    def test_bulk_load_level_count(self, pk_relation):
        """8192 entries with head=256 and ratio=16: L1 holds 4096, so the
        data lands in L2 with a fence-only L1 above it."""
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        assert tree.n_levels == 2
        assert tree.levels[0] == []      # fence-only
        assert len(tree.levels[1]) == 8192

    def test_all_keys_found(self, pk_relation):
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        tree.bind(build_stack("MEM/SSD"))
        for key in range(0, 8192, 113):
            assert tree.search(key).found

    def test_one_index_read_per_level(self, pk_relation):
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        stack = build_stack("SSD/SSD")
        tree.bind(stack)
        tree.search(4000)
        assert stack.stats.index_reads == tree.n_levels

    def test_miss(self, pk_relation):
        tree = FDTree.bulk_load(pk_relation, "pk")
        assert not tree.search(10**9).found

    def test_inserts_visible_from_head(self, pk_relation):
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        tree.insert(10**6, 0)
        assert tree.search(10**6).found

    def test_merge_cascade(self):
        rel = Relation({"k": np.arange(64, dtype=np.int64)}, tuple_size=256)
        tree = FDTree.bulk_load(
            rel, "k", FDTreeConfig(size_ratio=2, head_pages=1)
        )
        head_capacity = tree.config.entries_per_page
        for i in range(3 * head_capacity):
            tree.insert(10**6 + i, 0)
        assert tree.n_levels >= 1
        assert len(tree.head) <= head_capacity
        for i in range(0, 3 * head_capacity, 61):
            assert tree.search(10**6 + i).found

    def test_duplicates(self, dup_relation):
        tree = FDTree.bulk_load(dup_relation, "att1")
        tree.bind(build_stack("MEM/SSD"))
        att1 = np.asarray(dup_relation.columns["att1"])
        key = int(att1[123])
        assert tree.search(key).matches == int(np.count_nonzero(att1 == key))

    def test_size_close_to_bptree(self, pk_relation):
        """Paper §5: FD-Tree has the same size as a vanilla B+-Tree."""
        fd = FDTree.bulk_load(pk_relation, "pk")
        bp = BPlusTree.bulk_load(pk_relation, "pk")
        assert 0.5 < fd.size_pages / bp.size_pages < 1.5

    def test_delete_hides_key_and_reports_outcome(self, pk_relation):
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        assert tree.search(500).found
        outcome = tree.delete(500)
        assert outcome and outcome.tombstoned
        assert not tree.search(500).found
        assert not tree.delete(10**9)  # missing key: removed=False

    def test_reinsert_after_delete_is_visible(self, pk_relation):
        """Recency: a reinsert cancels the pending tombstone instead of
        being shadowed by it."""
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        assert tree.delete(500, tid=500)
        assert not tree.search(500).found
        tree.insert(500, 500)
        assert tree.search(500).found

    def test_reinsert_above_merged_tombstone_survives_merges(self):
        """A tombstone that migrated deeper than a later reinsert must
        not mask it — neither in the probe path (shallow wins) nor
        after a merge (tombstone/entry pairs annihilate)."""
        rel = Relation({"k": np.arange(64, dtype=np.int64)}, tuple_size=256)
        tree = FDTree.bulk_load(
            rel, "k", FDTreeConfig(size_ratio=2, head_pages=1), unique=True
        )
        head_capacity = tree.config.entries_per_page
        assert tree.delete(10, tid=10)
        # Push the tombstone down at least one level, then reinsert.
        for i in range(head_capacity + 1):
            tree.insert(10**6 + i, 0)
        tree.insert(10, 10)
        assert tree.search(10).found
        # Merge the reinserted entry down onto the tombstone: the pair
        # annihilates and the entry stays live via deeper bulk data.
        for i in range(2 * head_capacity):
            tree.insert(2 * 10**6 + i, 0)
        assert tree.search(10).found

    def test_delete_charges_probe_descent(self, pk_relation):
        """The liveness check reads the same pages a probe reads."""
        tree = FDTree.bulk_load(pk_relation, "pk", unique=True)
        stack = build_stack("SSD/SSD")
        tree.bind(stack)
        before = stack.stats.index_reads
        tree.delete(4000)
        assert stack.stats.index_reads - before == tree.n_levels


class TestSilt:
    def test_all_keys_found(self, pk_relation):
        store = SiltStore.build(pk_relation, "pk")
        store.bind(build_stack("MEM/SSD"))
        for key in range(0, 8192, 119):
            assert store.search(key).found

    def test_miss(self, pk_relation):
        store = SiltStore.build(pk_relation, "pk")
        assert not store.search(10**9).found

    def test_single_store_read(self, pk_relation):
        store = SiltStore.build(pk_relation, "pk")
        stack = build_stack("SSD/SSD")
        store.bind(stack)
        store.search(1234)
        assert stack.stats.index_reads == 1

    def test_uncached_trie_costs_extra_read(self, pk_relation):
        store = SiltStore.build(
            pk_relation, "pk", SiltConfig(trie_cached=False)
        )
        stack = build_stack("SSD/SSD")
        store.bind(stack)
        store.search(1234)
        assert stack.stats.index_reads == 2

    def test_no_range_scans(self, pk_relation):
        store = SiltStore.build(pk_relation, "pk")
        with pytest.raises(NotImplementedError):
            store.range_scan(1, 10)

    def test_smaller_than_bptree(self, pk_relation):
        """Paper §5: SILT's index is well under the B+-Tree's size."""
        silt = SiltStore.build(pk_relation, "pk")
        bp = BPlusTree.bulk_load(pk_relation, "pk")
        assert silt.size_pages < bp.size_pages


class TestSortedFileSearch:
    def test_requires_sorted(self):
        rel = Relation({"k": np.asarray([2, 1], dtype=np.int64)}, tuple_size=256)
        with pytest.raises(ValueError):
            SortedFileSearch(rel, "k")

    @pytest.mark.parametrize("method", ["binary_search", "interpolation_search"])
    def test_all_keys_found(self, pk_relation, method):
        sf = SortedFileSearch(pk_relation, "pk", unique=True)
        sf.bind(build_stack("MEM/SSD"))
        for key in range(0, 8192, 127):
            assert getattr(sf, method)(key).found, key

    @pytest.mark.parametrize("method", ["binary_search", "interpolation_search"])
    def test_misses(self, pk_relation, method):
        sf = SortedFileSearch(pk_relation, "pk", unique=True)
        sf.bind(build_stack("MEM/SSD"))
        assert not getattr(sf, method)(8192).found

    def test_binary_search_log_bound(self, pk_relation):
        sf = SortedFileSearch(pk_relation, "pk", unique=True)
        stack = build_stack("MEM/SSD")
        sf.bind(stack)
        sf.binary_search(5000)
        assert stack.stats.data_reads <= 10  # ceil(log2(512)) + 1

    def test_interpolation_faster_on_uniform(self, pk_relation):
        """log log N beats log N on uniformly distributed keys."""
        binary_stack = build_stack("MEM/SSD")
        interp_stack = build_stack("MEM/SSD")
        sf = SortedFileSearch(pk_relation, "pk", unique=True)
        total_b = total_i = 0
        for key in range(100, 8000, 411):
            sf.bind(binary_stack)
            sf.binary_search(key)
            sf.bind(interp_stack)
            sf.interpolation_search(key)
        assert interp_stack.stats.data_reads < binary_stack.stats.data_reads

    def test_duplicates_collected(self, dup_relation):
        sf = SortedFileSearch(dup_relation, "att1")
        sf.bind(build_stack("MEM/SSD"))
        att1 = np.asarray(dup_relation.columns["att1"])
        key = int(att1[2000])
        assert sf.binary_search(key).matches == int(
            np.count_nonzero(att1 == key)
        )

    def test_zero_index_size(self, pk_relation):
        sf = SortedFileSearch(pk_relation, "pk")
        assert sf.size_pages == 0 and sf.size_bytes == 0
