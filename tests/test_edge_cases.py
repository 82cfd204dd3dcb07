"""Edge cases across the stack: degenerate geometries, tiny relations,
extreme parameters, and failure injection."""

import numpy as np
import pytest

from repro.baselines import BPlusTree
from repro.core import BFTree, BFTreeConfig, BloomFilter
from repro.core.bf_leaf import LEAF_HEADER_BYTES, BFLeafGeometry
from repro.core.bloom import page_to_rows
from repro.storage import PAGE_SIZE, Relation, build_stack


class TestTinyRelations:
    def test_single_tuple(self):
        rel = Relation({"k": np.asarray([42], dtype=np.int64)}, tuple_size=256)
        tree = BFTree.bulk_load(rel, "k", unique=True)
        assert tree.n_leaves == 1
        assert tree.height == 1
        assert tree.search(42).found
        assert not tree.search(41).found

    def test_single_page(self):
        rel = Relation({"k": np.arange(16, dtype=np.int64)}, tuple_size=256)
        tree = BFTree.bulk_load(rel, "k", unique=True)
        for key in range(16):
            assert tree.search(key).found

    def test_one_tuple_per_page(self):
        """tuple_size == page size: every tuple is its own page."""
        rel = Relation(
            {"k": np.arange(32, dtype=np.int64)}, tuple_size=PAGE_SIZE
        )
        assert rel.tuples_per_page == 1
        assert rel.npages == 32
        tree = BFTree.bulk_load(rel, "k", unique=True)
        for key in (0, 15, 31):
            result = tree.search(key)
            assert result.found and result.tids == [key]

    def test_bptree_single_tuple(self):
        rel = Relation({"k": np.asarray([7], dtype=np.int64)}, tuple_size=256)
        tree = BPlusTree.bulk_load(rel, "k", unique=True)
        assert tree.search(7).found
        assert not tree.search(8).found

    def test_all_identical_keys(self):
        rel = Relation(
            {"k": np.zeros(256, dtype=np.int64)}, tuple_size=256
        )
        tree = BFTree.bulk_load(rel, "k")
        result = tree.search(0)
        assert result.matches == 256
        assert not tree.search(1).found


class TestExtremeParameters:
    def test_very_loose_fpp(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=0.9),
                                unique=True)
        assert tree.search(100).found    # correctness regardless of fpp

    def test_very_tight_fpp(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-20),
                                unique=True)
        stack = build_stack("MEM/SSD")
        tree.bind(stack)
        for key in range(0, 8192, 511):
            assert tree.search(key).found
        assert stack.stats.false_reads == 0

    def test_single_hash_function(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=0.01, hash_count=1),
            unique=True,
        )
        assert tree.search(4000).found

    def test_large_granularity(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=0.01, pages_per_bf=64),
            unique=True,
        )
        result = tree.search(4000)
        assert result.found
        # A matching group fetch reads up to 64 pages.
        assert result.pages_read <= 64 + result.false_pages + 1

    def test_nonstandard_page_size(self):
        rel = Relation({"k": np.arange(512, dtype=np.int64)}, tuple_size=256)
        config = BFTreeConfig(fpp=0.01, page_size=1024)
        tree = BFTree.bulk_load(rel, "k", config, unique=True)
        assert tree.search(77).found
        assert tree.size_bytes == tree.size_pages * 1024


class TestLeafGeometryBudget:
    def test_filters_fit_page_budget(self):
        for fpp in (0.3, 0.01, 1e-6, 1e-12):
            geo = BFLeafGeometry.plan(fpp, expected_keys_per_group=16)
            assert geo.max_filters * geo.bits_per_bf <= (
                (geo.page_size - LEAF_HEADER_BYTES) * 8
            )

    def test_counting_budget_includes_counter_bits(self):
        plain = BFLeafGeometry.plan(0.01, 16, filter_kind="plain")
        counting = BFLeafGeometry.plan(0.01, 16, filter_kind="counting")
        budget = (4096 - LEAF_HEADER_BYTES) * 8
        assert counting.max_filters * counting.bits_per_bf * 4 <= budget
        assert counting.max_filters < plain.max_filters

    def test_invalid_filter_kind(self):
        with pytest.raises(ValueError):
            BFLeafGeometry.plan(0.01, 16, filter_kind="cuckoo")


class TestStringKeys:
    def test_bloom_filter_string_keys(self):
        bf = BloomFilter(512, 5)
        words = [f"sensor-{i}" for i in range(40)]
        for word in words:
            bf.add(word)
        assert all(bf.might_contain(w) for w in words)

    def test_mixed_type_rejected(self):
        bf = BloomFilter(64, 3)
        with pytest.raises(TypeError):
            bf.add(3.14159)


class TestProbeRobustness:
    def test_search_far_outside_domain(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", unique=True)
        for key in (-(2**62), 2**62):
            assert not tree.search(key).found

    def test_range_scan_entire_domain(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-4),
                                unique=True)
        result = tree.range_scan(-100, 10**9)
        assert result.matches == 8192

    def test_range_scan_single_key(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-4),
                                unique=True)
        assert tree.range_scan(4000, 4000).matches == 1

    def test_rebind_to_other_stack(self, pk_relation):
        """A tree can move between storage stacks; counters stay separate."""
        tree = BFTree.bulk_load(pk_relation, "pk", unique=True)
        first = build_stack("MEM/SSD")
        second = build_stack("HDD/HDD")
        tree.bind(first)
        tree.search(10)
        tree.unbind()
        tree.bind(second)
        tree.search(10)
        assert first.stats.data_reads >= 1
        assert second.stats.data_reads >= 1
        assert second.elapsed() > first.elapsed()

    def test_repeated_bulk_loads_identical(self, pk_relation):
        a = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-3),
                             unique=True)
        b = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-3),
                             unique=True)
        assert a.size_pages == b.size_pages
        assert a.n_leaves == b.n_leaves
        la, lb = a.leaves_in_order(), b.leaves_in_order()
        assert [l.min_pid for l in la] == [l.min_pid for l in lb]
        assert all(
            np.array_equal(page_to_rows(p.page, p.nfilters),
                           page_to_rows(q.page, q.nfilters))
            and p.counts == q.counts
            for p, q in zip(la, lb)
        )
