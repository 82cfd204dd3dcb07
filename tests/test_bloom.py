"""Unit tests for Bloom filters and the Equation-1 sizing math."""

import math
import random

import numpy as np
import pytest

from repro.core.bloom import (
    BloomFilter,
    bits_for_capacity,
    capacity_for_bits,
    expected_fpp,
    fpp_after_deletes,
    fpp_after_inserts,
    optimal_hash_count,
)


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

    def test_contains_operator(self):
        bf = BloomFilter(64, 3)
        bf.add(5)
        assert 5 in bf

    def test_empty_filter_rejects(self):
        bf = BloomFilter(64, 3)
        assert not bf.might_contain(1)

    def test_count_tracks_adds(self):
        bf = BloomFilter(64, 3)
        bf.add(1)
        bf.add(1)
        assert bf.count == 2

    def test_for_capacity_sizing(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        assert bf.nbits == math.ceil(bits_for_capacity(100, 0.01))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_clear(self):
        bf = BloomFilter(64, 3)
        bf.add(7)
        bf.clear()
        assert bf.count == 0 and not bf.might_contain(7)

    def test_string_keys(self):
        bf = BloomFilter(256, 4)
        bf.add("hello")
        assert bf.might_contain("hello")
        assert not bf.might_contain("warld-xyz-very-unlikely")

    def test_size_bytes(self):
        assert BloomFilter(100, 3).size_bytes() == 13

    def test_bulk_add_equivalent_to_scalar(self):
        keys = np.arange(100, 150, dtype=np.int64)
        a = BloomFilter(400, 5, seed=2)
        b = BloomFilter(400, 5, seed=2)
        for key in keys:
            a.add(int(key))
        b.bulk_add(keys)
        assert a._bits == b._bits
        assert a.count == b.count

    def test_bulk_add_empty(self):
        bf = BloomFilter(64, 3)
        bf.bulk_add(np.empty(0, dtype=np.int64))
        assert bf.count == 0


class TestMeasuredFpp:
    def test_tracks_nominal_rate(self):
        """Empirical false-positive rate lands near the design target."""
        rng = random.Random(42)
        for target in (0.1, 0.01):
            n = 200
            bf = BloomFilter.for_capacity(
                n, target, k=optimal_hash_count(bits_for_capacity(n, target), n)
            )
            members = rng.sample(range(10**9), n)
            for key in members:
                bf.add(key)
            probes = rng.sample(range(10**9, 2 * 10**9), 30_000)
            rate = sum(bf.might_contain(p) for p in probes) / len(probes)
            assert rate < 3 * target
            assert rate > target / 10

    def test_effective_fpp_from_fill(self):
        bf = BloomFilter.for_capacity(100, 0.01, k=7)
        for key in range(100):
            bf.add(key)
        assert bf.effective_fpp() == pytest.approx(bf.fill_fraction() ** 7)

    def test_fill_fraction_bounds(self):
        bf = BloomFilter(64, 3)
        assert bf.fill_fraction() == 0.0
        for key in range(1000):
            bf.add(key)
        assert bf.fill_fraction() <= 1.0


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
