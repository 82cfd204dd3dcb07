"""Unit tests for Bloom filters, filter pages and the Equation-1 sizing math."""

import math
import random

import numpy as np
import pytest

from repro.core.bf_leaf import DUPLICATE_TRUST_MAX_FPP, BFLeaf, BFLeafGeometry
from repro.core.bloom import (
    BloomFilter,
    bits_for_capacity,
    capacity_for_bits,
    expected_fpp,
    fpp_after_deletes,
    fpp_after_inserts,
    optimal_hash_count,
    page_from_rows,
    page_to_rows,
)


def _geometry(nbits, k, max_filters):
    return BFLeafGeometry(fpp=0.01, bits_per_bf=nbits, pages_per_bf=1,
                          max_filters=max_filters, hash_count=k,
                          page_size=4096)


def _popcount(words):
    return sum(int(w).bit_count() for w in words)


class TestEquationOne:
    def test_capacity_example(self):
        """One 4 KB page of bits at fpp 0.01 indexes ~4916 keys."""
        n = capacity_for_bits(4096 * 8, 0.01)
        assert n == pytest.approx(-4096 * 8 * math.log(2) ** 2 / math.log(0.01))
        assert 3300 < n < 3500

    def test_roundtrip(self):
        for fpp in (0.3, 0.01, 1e-6, 1e-12):
            n = 1000
            m = bits_for_capacity(n, fpp)
            assert capacity_for_bits(m, fpp) == pytest.approx(n)

    def test_lower_fpp_needs_more_bits(self):
        assert bits_for_capacity(100, 1e-6) > bits_for_capacity(100, 1e-2)

    def test_logarithmic_cost_of_accuracy(self):
        """Paper §3 property 2: halving fpp costs O(log) bits per element."""
        b1 = bits_for_capacity(1, 1e-2)
        b2 = bits_for_capacity(1, 1e-4)
        b3 = bits_for_capacity(1, 1e-8)
        # Cost per decade of accuracy is constant: (b2-b1) spans 2 decades,
        # (b3-b2) spans 4.
        assert b2 - b1 == pytest.approx((b3 - b2) / 2, rel=0.01)

    def test_invalid_fpp(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                bits_for_capacity(10, bad)

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError):
            bits_for_capacity(-1, 0.01)

    def test_split_property(self):
        """Paper §3 property 1: splitting M bits / N keys into S filters
        preserves the bits-per-key ratio and hence the fpp."""
        m = bits_for_capacity(1024, 1e-3)
        per_filter = capacity_for_bits(m / 8, 1e-3)
        assert per_filter == pytest.approx(1024 / 8)


class TestOptimalHashCount:
    def test_textbook_value(self):
        # m/n = 10 bits per key -> k ~ 6.9 -> 7
        assert optimal_hash_count(1000, 100) == 7

    def test_at_least_one(self):
        assert optimal_hash_count(1, 1000) == 1
        assert optimal_hash_count(10, 0) == 1


class TestExpectedFpp:
    def test_empty_filter_never_false_positive(self):
        assert expected_fpp(100, 0, 3) == 0.0

    def test_zero_bits_always_positive(self):
        assert expected_fpp(0, 10, 3) == 1.0

    def test_monotone_in_keys(self):
        assert expected_fpp(100, 20, 3) > expected_fpp(100, 10, 3)


class TestBloomFilterBasics:
    def test_no_false_negatives(self):
        bf = BloomFilter(nbits=256, k=4)
        keys = random.Random(0).sample(range(10**9), 20)
        for key in keys:
            bf.add(key)
        assert all(bf.might_contain(k) for k in keys)

    def test_empty_filter_rejects(self):
        bf = BloomFilter(64, 3)
        assert not bf.might_contain(1)

    def test_count_tracks_adds(self):
        """A leaf counts adds per filter, re-adds included."""
        leaf = BFLeaf(node_id=1, geometry=BFLeafGeometry.plan(0.01, 16.0),
                      min_pid=0)
        leaf.add(1, 2)
        leaf.add(1, 2)
        assert leaf.counts == [0, 0, 2]

    def test_for_capacity_sizing(self):
        """A leaf's filters are sized for their expected keys (Eq. 1)."""
        geo = BFLeafGeometry.plan(0.01, 100)
        assert geo.bits_per_bf == round(bits_for_capacity(100, 0.01))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_string_keys(self):
        bf = BloomFilter(256, 4)
        bf.add("hello")
        assert bf.might_contain("hello")
        assert not bf.might_contain("warld-xyz-very-unlikely")

    def test_bulk_add_equivalent_to_scalar(self):
        """One bulk add of a key batch into a leaf's sliced page sets
        the bits a filter's scalar adds set, filter by filter."""
        keys = np.arange(100, 150, dtype=np.int64)
        pids = keys % 3
        order = np.lexsort((keys, pids))
        leaf = BFLeaf(node_id=2, geometry=_geometry(400, 5, 3), min_pid=0,
                      filter_seed=2)
        leaf.add_pages(keys[order], pids[order])
        rows = page_to_rows(leaf.page, 3)
        for row in range(3):
            bf = BloomFilter(400, 5, seed=2)
            for key in keys[pids == row]:
                bf.add(int(key))
            assert np.array_equal(rows[row], bf._words)

    def test_bulk_add_empty(self):
        leaf = BFLeaf(node_id=2, geometry=_geometry(64, 3, 2), min_pid=0)
        leaf.add_pages(np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        assert not leaf.page.any()

    @pytest.mark.parametrize("nbits,n", [
        (400, 3), (64, 8), (1, 9), (130, 0), (65, 17)])
    def test_page_rows_round_trip(self, nbits, n):
        """The snapshot conversion pair: row ``i`` of the row form is
        filter ``i`` of the sliced page, bit for bit, both ways."""
        rng = np.random.default_rng(nbits + n)
        bits = rng.random((n, nbits)) < 0.3
        rows = np.zeros((n, (nbits + 63) // 64), dtype=np.uint64)
        for i, j in zip(*bits.nonzero()):
            rows[i, j >> 6] |= np.uint64(1) << np.uint64(j & 63)
        page = page_from_rows(rows, nbits)
        assert page.shape == (nbits, (n + 7) // 8)
        for b in range(nbits):
            for g in range(8 * page.shape[1]):
                want = g < n and bits[g, b]
                assert (page[b, g >> 3] >> (g & 7)) & 1 == want
        back = page_to_rows(page, n)
        assert back.dtype == np.uint64 and back.tobytes() == rows.tobytes()


class TestMeasuredFpp:
    def test_tracks_nominal_rate(self):
        """Empirical false-positive rate lands near the design target."""
        rng = random.Random(42)
        for target in (0.1, 0.01):
            n = 200
            nbits = math.ceil(bits_for_capacity(n, target))
            bf = BloomFilter(nbits, k=optimal_hash_count(nbits, n))
            members = rng.sample(range(10**9), n)
            for key in members:
                bf.add(key)
            probes = rng.sample(range(10**9, 2 * 10**9), 30_000)
            rate = sum(bf.might_contain(p) for p in probes) / len(probes)
            assert rate < 3 * target
            assert rate > target / 10

    def test_effective_fpp_from_fill(self):
        """A filter's effective fpp is its fill to the k-th power; past
        DUPLICATE_TRUST_MAX_FPP its membership verdicts are not trusted
        to classify re-inserts."""
        geo = BFLeafGeometry.plan(0.01, 16.0)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0)
        leaf.add(7, 0)
        positions = leaf.hash_batch([7])
        groups = np.zeros(1, dtype=np.int64)

        def flags():
            return BFLeaf.duplicate_flags([leaf], [0], groups,
                                          positions).tolist()

        assert flags() == [True]
        fill = _popcount(page_to_rows(leaf.page, 1)[0]) / geo.bits_per_bf
        assert fill ** geo.hash_count <= DUPLICATE_TRUST_MAX_FPP
        leaf.page[:, 0] |= 1                  # saturate filter 0
        assert flags() == [False]
        assert not leaf.duplicate_prehashed(0, positions[0].tolist())

    def test_fill_fraction_bounds(self):
        leaf = BFLeaf(node_id=2, geometry=_geometry(64, 3, 2), min_pid=0)
        leaf.add(0, 1)
        assert _popcount(page_to_rows(leaf.page, 2)[0]) == 0
        keys = np.arange(1000, dtype=np.int64)
        leaf.add_pages(keys, np.zeros(1000, dtype=np.int64))
        assert _popcount(page_to_rows(leaf.page, 2)[0]) == 64
        # The trust gate counts the same bits in the sliced column.
        positions = leaf.hash_batch([5])
        assert not leaf.duplicate_prehashed(0, positions[0].tolist())
        assert BFLeaf.duplicate_flags([leaf], [0], np.zeros(1, np.int64),
                                      positions).tolist() == [False]


class TestDegradationFormulas:
    def test_eq14_identity_at_zero(self):
        assert fpp_after_inserts(0.01, 0.0) == pytest.approx(0.01)

    def test_eq14_example(self):
        """Paper §7: fpp=0.01% + 10% more elements -> ~0.023%."""
        new = fpp_after_inserts(1e-4, 0.10)
        assert new == pytest.approx(1e-4 ** (1 / 1.1))
        assert 2.0e-4 < new < 2.6e-4

    def test_eq14_monotone(self):
        values = [fpp_after_inserts(1e-3, r) for r in (0, 0.5, 1, 5)]
        assert values == sorted(values)

    def test_eq14_converges_to_one(self):
        assert fpp_after_inserts(1e-3, 1e6) == pytest.approx(1.0, abs=1e-4)

    def test_deletes_additive(self):
        assert fpp_after_deletes(0.01, 0.10) == pytest.approx(0.11)

    def test_deletes_capped(self):
        assert fpp_after_deletes(0.5, 0.9) == 1.0

    def test_delete_ratio_validated(self):
        with pytest.raises(ValueError):
            fpp_after_deletes(0.01, 1.5)

    def test_insert_ratio_validated(self):
        with pytest.raises(ValueError):
            fpp_after_inserts(0.01, -0.1)
