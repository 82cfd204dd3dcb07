"""Counting filters (§7) on the leaf's pages, and plain-filter overfill.

A counting leaf keeps one uint8 counter per filter bit in a counter
page beside its bit page; :meth:`BFLeaf.remove_key` decrements a key's
counters in place.  These are the properties Fan et al.'s counting
filters promise, checked on that layout: no false negatives, removal
restores the other keys' state, saturated counters never decrement.
"""

import math
import random

import numpy as np
import pytest

from repro.core.bf_leaf import BFLeaf, BFLeafGeometry
from repro.core.bloom import BloomFilter, bits_for_capacity, counter_page_add


def _counting_leaf(fpp=0.01, keys_per_group=40.0, **geo):
    plan = BFLeafGeometry.plan(fpp, keys_per_group, filter_kind="counting")
    return BFLeaf(node_id=5, geometry=BFLeafGeometry(**{**vars(plan), **geo}),
                  min_pid=0)


def _present(leaf, key, pid=0):
    """Does the filter of page ``pid`` report ``key`` present?"""
    _, groups = BFLeaf._match_matrix([leaf.page], [0],
                                     leaf.hash_batch([key]))
    return leaf.group_of(pid) in groups


def _fill(leaf, group=0):
    return int(np.count_nonzero(leaf.counters[group])) \
        / leaf.geometry.bits_per_bf


class TestCountingBasics:
    def test_no_false_negatives(self):
        leaf = _counting_leaf()
        keys = random.Random(1).sample(range(10**9), 40)
        for j, key in enumerate(keys):
            leaf.add(key, j % 4)
        assert all(_present(leaf, key, j % 4) for j, key in enumerate(keys))

    def test_contains_operator(self):
        """The scalar membership test of a counting leaf's filter."""
        leaf = _counting_leaf()
        leaf.add(9, 0)
        assert leaf.duplicate_prehashed(0, leaf.key_positions(9))
        assert not leaf.duplicate_prehashed(0, leaf.key_positions(10))

    def test_empty_rejects(self):
        leaf = _counting_leaf()
        assert leaf.matching_page_runs_many([1]) == [[]]

    def test_for_capacity_matches_plain_sizing(self):
        """Counters change the space per bit, not the position math."""
        counting = BFLeafGeometry.plan(0.01, 100, filter_kind="counting")
        plain = BFLeafGeometry.plan(0.01, 100)
        assert counting.bits_per_bf == plain.bits_per_bf
        assert counting.hash_count == plain.hash_count

    def test_validation(self):
        with pytest.raises(ValueError):
            BFLeafGeometry.plan(0.01, 16, filter_kind="quotient")
        with pytest.raises(ValueError):
            BFLeafGeometry.plan(0.01, 16, filter_kind="counting",
                                counter_bits=1)
        with pytest.raises(ValueError):
            BFLeafGeometry.plan(0.01, 16, filter_kind="counting",
                                counter_bits=9)
        # Plain filters have no counters, so the width is not checked.
        assert BFLeafGeometry.plan(0.01, 16, counter_bits=9).max_filters

    def test_space_cost_is_counter_bits(self):
        """Each filter bit costs ``counter_bits`` bits of leaf page, so a
        counting leaf fits 1/``counter_bits`` as many filters."""
        plain = BFLeafGeometry.plan(0.01, 40.0)
        for counter_bits in (2, 4, 8):
            counting = BFLeafGeometry.plan(0.01, 40.0, filter_kind="counting",
                                           counter_bits=counter_bits)
            assert counting.bits_per_bf == plain.bits_per_bf
            assert counting.max_filters == plain.max_filters // counter_bits


class TestCountingDeletes:
    def test_remove_restores_state(self):
        """Deleting a key removes it without touching other keys."""
        leaf = _counting_leaf()
        keys = random.Random(2).sample(range(10**9), 30)
        for key in keys:
            leaf.add(key, 0)
        victim = keys[7]
        assert leaf.remove_key(victim, 0)
        assert not _present(leaf, victim)
        for key in keys:
            if key != victim:
                assert _present(leaf, key)

    def test_remove_absent_key_noop(self):
        leaf = _counting_leaf()
        leaf.add(5, 0)
        before = (leaf.page.copy(), leaf.counters.copy(), list(leaf.counts),
                  leaf.nkeys)
        assert not leaf.remove_key(999_999_999, 0)
        assert not leaf.remove_key(5, 3)          # a filter not in use
        assert np.array_equal(leaf.page, before[0])
        assert np.array_equal(leaf.counters, before[1])
        assert (list(leaf.counts), leaf.nkeys) == (before[2], before[3])

    def test_remove_duplicate_occurrences(self):
        leaf = _counting_leaf()
        leaf.add(5, 0)
        leaf.add(5, 0)
        assert leaf.remove_key(5, 0)
        assert _present(leaf, 5)    # one occurrence left
        assert leaf.remove_key(5, 0)
        assert not _present(leaf, 5)

    def test_delete_does_not_raise_fpp(self):
        """Unlike §7's in-place bit clearing, counter deletes keep the
        fill fraction at the pre-insert level."""
        leaf = _counting_leaf(keys_per_group=200.0)
        rng = random.Random(3)
        for key in rng.sample(range(10**9), 200):
            leaf.add(key, 0)
        baseline = _fill(leaf)
        extra = rng.sample(range(2 * 10**9, 3 * 10**9), 50)
        for key in extra:
            leaf.add(key, 0)
        assert _fill(leaf) >= baseline
        for key in extra:
            leaf.remove_key(key, 0)
        assert _fill(leaf) == pytest.approx(baseline, abs=0.01)

    def test_counter_saturation_safe(self):
        """Saturated counters are never decremented (no false negatives)."""
        leaf = _counting_leaf(bits_per_bf=8, hash_count=2, counter_bits=2,
                              max_filters=1)       # tiny: saturates
        for i in range(50):
            leaf.add(i, 0)
        assert leaf.counters.max() == 3
        for i in range(50):
            leaf.remove_key(i, 0)
        # Saturation means residual bits may remain, but adds are intact.
        leaf.add(123, 0)
        assert _present(leaf, 123)


class TestCounterPage:
    def test_saturating_add_equals_increments_in_turn(self):
        rng = np.random.default_rng(9)
        counters = rng.integers(0, 16, size=(4, 50)).astype(np.uint8)
        rows = rng.integers(0, 4, size=300)
        positions = rng.integers(0, 50, size=(300, 3))
        expected = counters.astype(np.int64)
        for row, pos in zip(rows, positions):
            for p in pos:
                expected[row, p] = min(expected[row, p] + 1, 15)
        counter_page_add(counters, rows, positions, 15)
        assert np.array_equal(counters, expected)


class TestScalable:
    def test_plain_filter_degrades_in_contrast(self):
        """A plain filter overfilled twentyfold blows past its target."""
        rng = random.Random(6)
        bf = BloomFilter(math.ceil(bits_for_capacity(100, 0.02)), k=5)
        for key in rng.sample(range(10**9), 2000):
            bf.add(key)
        probes = rng.sample(range(10**9, 2 * 10**9), 10_000)
        rate = sum(bf.might_contain(p) for p in probes) / len(probes)
        assert rate > 0.5
