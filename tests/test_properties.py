"""Property-based tests (hypothesis) for the core invariants.

The invariants the paper's design rests on:

* Bloom filters never produce false negatives.
* A BF-Tree probe finds every key the relation contains (false positives
  only cost extra reads, never correctness).
* The B+-Tree is an exact index: probe results equal a reference scan.
* Equation 1 and Equation 14 are mutually consistent.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import BPlusTree
from repro.core import BFTree, BFTreeConfig, BloomFilter
from repro.core.bloom import (
    bits_for_capacity,
    capacity_for_bits,
    fpp_after_inserts,
    page_to_rows,
)
from repro.core.bf_leaf import BFLeaf, BFLeafGeometry
from repro.core.hashing import bloom_positions, key_to_int
from repro.storage import Relation

# Sorted, possibly-duplicated key columns of modest size.
sorted_keys = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=300
).map(sorted)

fpps = st.floats(min_value=1e-9, max_value=0.5, allow_nan=False)


class TestBloomFilterProperties:
    @given(
        keys=st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                      min_size=1, max_size=100),
        nbits=st.integers(min_value=8, max_value=2048),
        k=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives(self, keys, nbits, k):
        bf = BloomFilter(nbits=nbits, k=k)
        for key in keys:
            bf.add(key)
        assert all(bf.might_contain(key) for key in keys)

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=2**62),
                      min_size=1, max_size=80, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_bulk_add_equals_scalar(self, keys):
        """One bulk add of a key batch into a leaf's sliced page sets a
        scalar filter's bits."""
        a = BloomFilter(512, 5, seed=7)
        for key in keys:
            a.add(key)
        geo = BFLeafGeometry(fpp=0.01, bits_per_bf=512, pages_per_bf=1,
                             max_filters=1, hash_count=5, page_size=4096)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0, filter_seed=7)
        leaf.add_pages(np.asarray(sorted(keys), dtype=np.int64),
                       np.zeros(len(keys), dtype=np.int64))
        assert np.array_equal(page_to_rows(leaf.page, 1)[0], a._words)

    @given(key=st.integers(min_value=-(2**63), max_value=2**63 - 1),
           k=st.integers(min_value=1, max_value=32),
           nbits=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_positions_in_range(self, key, k, nbits):
        positions = bloom_positions(key_to_int(key), k, nbits)
        assert len(positions) == k
        assert all(0 <= p < nbits for p in positions)


class TestEquationProperties:
    @given(n=st.integers(min_value=1, max_value=10**7), fpp=fpps)
    @settings(max_examples=100, deadline=None)
    def test_eq1_roundtrip(self, n, fpp):
        assert capacity_for_bits(bits_for_capacity(n, fpp), fpp) == \
            __import__("pytest").approx(n)

    @given(fpp=fpps, r1=st.floats(min_value=0, max_value=10),
           r2=st.floats(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_eq14_monotone_and_bounded(self, fpp, r1, r2):
        lo, hi = sorted((r1, r2))
        a, b = fpp_after_inserts(fpp, lo), fpp_after_inserts(fpp, hi)
        assert fpp <= a <= b <= 1.0

    @given(fpp=fpps, ratio=st.floats(min_value=0.001, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_eq14_composition(self, fpp, ratio):
        """Growing by r then measuring equals the closed form: the fpp of a
        filter holding N(1+r) keys designed for N."""
        direct = fpp_after_inserts(fpp, ratio)
        assert direct == __import__("pytest").approx(
            math.exp(math.log(fpp) / (1 + ratio))
        )


def _relation_from(keys):
    return Relation(
        {"k": np.asarray(keys, dtype=np.int64)}, tuple_size=256
    )


class TestBFTreeProperties:
    @given(keys=sorted_keys, fpp=st.sampled_from([0.2, 0.01, 1e-4]))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_search_finds_every_key(self, keys, fpp):
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=fpp))
        for key in set(keys):
            result = tree.search(key)
            assert result.found
            assert result.matches == keys.count(key)

    @given(keys=sorted_keys)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_absent_keys_not_found_in_gaps(self, keys):
        """Keys outside the tree's key range are definite misses."""
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        assert not tree.search(max(keys) + 1).found
        assert not tree.search(min(keys) - 1).found

    @given(keys=sorted_keys,
           window=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_range_scan_counts_exact(self, keys, window):
        lo, hi = sorted(window)
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        expected = sum(1 for key in keys if lo <= key <= hi)
        assert tree.range_scan(lo, hi).matches == expected

    @given(keys=sorted_keys)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_leaf_chain_partitions_pages(self, keys):
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.05))
        chain = tree.leaves_in_order()
        assert chain[0].min_pid == 0
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.min_pid == prev.min_pid + prev.pages_covered


class TestBPlusTreeProperties:
    @given(keys=sorted_keys)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exact_index(self, keys):
        rel = _relation_from(keys)
        tree = BPlusTree.bulk_load(rel, "k")
        for key in set(keys):
            assert tree.search(key).matches == keys.count(key)
        assert not tree.search(max(keys) + 1).found

    @given(keys=sorted_keys,
           window=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_range_scan_exact(self, keys, window):
        lo, hi = sorted(window)
        rel = _relation_from(keys)
        tree = BPlusTree.bulk_load(rel, "k")
        expected = sum(1 for key in keys if lo <= key <= hi)
        assert tree.range_scan(lo, hi).matches == expected

    @given(keys=sorted_keys)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bf_and_bp_agree(self, keys):
        """The approximate index returns exactly what the exact one does."""
        rel = _relation_from(keys)
        bf = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        bp = BPlusTree.bulk_load(rel, "k")
        for key in list(set(keys))[:20]:
            assert bf.search(key).matches == bp.search(key).matches
