"""Unit tests for BF-leaves (geometry, probing, updates)."""

import numpy as np
import pytest

from repro.core.bf_leaf import BFLeaf, BFLeafGeometry, LeafOverflow
from repro.core.bloom import bits_for_capacity


def _geometry(fpp=0.01, keys_per_group=16.0, pages_per_bf=1, max_filters=None):
    geo = BFLeafGeometry.plan(fpp, keys_per_group, pages_per_bf=pages_per_bf)
    if max_filters is not None:
        geo = BFLeafGeometry(
            fpp=geo.fpp, bits_per_bf=geo.bits_per_bf,
            pages_per_bf=geo.pages_per_bf, max_filters=max_filters,
            hash_count=geo.hash_count, page_size=geo.page_size,
        )
    return geo


def _runs(leaf, key):
    """Page runs a probe for ``key`` fetches (a batch of one)."""
    return leaf.matching_page_runs_many([key])[0]


def _pages(leaf, key):
    return {first + i for first, n in _runs(leaf, key) for i in range(n)}


def _leaf(min_pid=0, **kw):
    return BFLeaf(node_id=1, geometry=_geometry(**kw), min_pid=min_pid)


class TestGeometryPlan:
    def test_bits_follow_equation_one(self):
        geo = _geometry(fpp=0.01, keys_per_group=16)
        assert geo.bits_per_bf == round(bits_for_capacity(16, 0.01))

    def test_budget_respected(self):
        geo = _geometry()
        assert geo.max_filters * geo.bits_per_bf <= (4096 - 48) * 8

    def test_lower_fpp_fewer_filters(self):
        assert _geometry(fpp=1e-8).max_filters < _geometry(fpp=0.1).max_filters

    def test_key_capacity_close_to_eq5(self):
        """Leaf capacity tracks Equation 5 within the header overhead."""
        geo = _geometry(fpp=1e-3)
        eq5 = -4096 * 8 * np.log(2) ** 2 / np.log(1e-3)
        assert geo.key_capacity == pytest.approx(eq5, rel=0.1)

    def test_explicit_hash_count(self):
        geo = BFLeafGeometry.plan(0.01, 16, hash_count=3)
        assert geo.hash_count == 3

    def test_invalid_pages_per_bf(self):
        with pytest.raises(ValueError):
            BFLeafGeometry.plan(0.01, 16, pages_per_bf=0)

    def test_grouped_pages(self):
        geo = BFLeafGeometry.plan(0.01, 2.0, pages_per_bf=4)
        assert geo.max_pages == geo.max_filters * 4


class TestAdd:
    def test_tracks_key_range(self):
        leaf = _leaf()
        leaf.add(50, 0)
        leaf.add(10, 0)
        leaf.add(99, 1)
        assert (leaf.min_key, leaf.max_key) == (10, 99)
        assert leaf.nkeys == 3
        assert leaf.pages_covered == 2

    def test_grows_filters_to_cover_pid(self):
        leaf = _leaf()
        leaf.add(1, 5)
        assert leaf.nfilters == 6

    def test_overflow_beyond_budget(self):
        leaf = _leaf(max_filters=2)
        leaf.add(1, 0)
        with pytest.raises(LeafOverflow):
            leaf.add(2, 2)

    def test_pid_below_range_rejected(self):
        leaf = _leaf(min_pid=10)
        with pytest.raises(ValueError):
            leaf.add(1, 5)

    def test_covers_key(self):
        leaf = _leaf()
        assert not leaf.covers_key(5)
        leaf.add(5, 0)
        leaf.add(10, 0)
        assert leaf.covers_key(7)
        assert not leaf.covers_key(11)

    def test_add_page_keys_matches_scalar_adds(self):
        """One page's distinct keys through the bulk add_pages path."""
        scalar, bulk = _leaf(), _leaf()
        keys = np.asarray([3, 5, 9], dtype=np.int64)
        for key in keys:
            scalar.add(int(key), 2)
        bulk.add_pages(keys, np.full(len(keys), 2))
        assert scalar.nkeys == bulk.nkeys
        assert scalar.min_key == bulk.min_key
        assert scalar.max_key == bulk.max_key
        assert np.array_equal(scalar.page, bulk.page)
        assert scalar.counts == bulk.counts

    def test_add_page_keys_empty(self):
        leaf = _leaf()
        leaf.add_pages(np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        assert leaf.nkeys == 0

    def test_duplicate_reinsert_does_not_inflate_nkeys(self):
        """Regression: re-adding an already-present (key, page) pair used
        to bump nkeys even though no filter bit changed, inflating the
        leaf toward a premature split."""
        leaf = _leaf()
        leaf.add(42, 0)
        bits = leaf.page.copy()
        assert leaf.add(42, 0) is False       # did not grow
        assert leaf.nkeys == 1
        assert np.array_equal(leaf.page, bits)  # bit-level no-op
        assert leaf.counts[0] == 2            # multiplicity still recorded
        # A different page group is a new (key, group) insertion.
        assert leaf.add(42, 1) is True
        assert leaf.nkeys == 2

    def test_extra_inserts_reconciled_across_paths(self):
        """add and add_pages agree: overflow is always
        nkeys - key_capacity, however the leaf got there."""
        leaf = _leaf(max_filters=4)
        capacity = leaf.key_capacity
        bulk = np.arange(capacity + 5, dtype=np.int64)
        leaf.add_pages(bulk, np.zeros(len(bulk), dtype=np.int64))
        assert leaf.extra_inserts == leaf.nkeys - capacity
        for i in range(7):
            leaf.add(10**6 + i, 1)            # novel keys via scalar path
        assert leaf.extra_inserts == leaf.nkeys - capacity


class TestProbing:
    def test_matching_groups_finds_inserted(self):
        leaf = _leaf()
        leaf.add(42, 3)
        assert 3 in _pages(leaf, 42)

    def test_runs_merge_adjacent_groups(self):
        leaf = _leaf()
        leaf.add(7, 0)
        leaf.add(7, 1)
        leaf.add(7, 2)
        runs = _runs(leaf, 7)
        assert runs[0] == (0, 3)

    def test_runs_respect_min_pid(self):
        leaf = _leaf(min_pid=100)
        leaf.add(7, 102)
        runs = _runs(leaf, 7)
        assert any(first <= 102 < first + n for first, n in runs)

    def test_grouped_run_spans_group(self):
        geo = BFLeafGeometry.plan(0.01, 2.0, pages_per_bf=4)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0)
        leaf.add(5, 6)          # group 1 covers pages 4..7
        leaf.add(5, 7)
        runs = _runs(leaf, 5)
        assert runs[0][0] == 4

    def test_group_page_range_clipped(self):
        geo = BFLeafGeometry.plan(0.01, 2.0, pages_per_bf=4)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0)
        leaf.add(5, 5)          # coverage ends mid-group
        first, npages = leaf.group_page_range(1)
        assert (first, npages) == (4, 2)


class TestDeletes:
    def test_deleted_key_not_matched(self):
        leaf = _leaf()
        leaf.add(42, 0)
        leaf.mark_deleted(42)
        assert _runs(leaf, 42) == []

    def test_reinsert_clears_tombstone(self):
        leaf = _leaf()
        leaf.add(42, 0)
        leaf.mark_deleted(42)
        leaf.add(42, 1)
        assert _runs(leaf, 42)


class TestEffectiveFpp:
    def test_empty_leaf(self):
        assert _leaf().effective_fpp() == 0.0

    def test_nominal_within_capacity(self):
        leaf = _leaf()
        leaf.add(1, 0)
        assert leaf.effective_fpp() == pytest.approx(0.01)

    def test_degrades_with_overflow(self):
        leaf = _leaf(max_filters=4)
        capacity = leaf.key_capacity
        for i in range(capacity + capacity // 10):
            leaf.add(i, min(3, i % 4))
        assert leaf.effective_fpp() > leaf.geometry.fpp
        # Equation 14 with ratio ~0.1: fpp^(1/1.1)
        expected = 0.01 ** (1 / (1 + leaf.extra_inserts / capacity))
        assert leaf.effective_fpp() == pytest.approx(expected, rel=0.01)

