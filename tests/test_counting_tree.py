"""Tests for BF-Trees built on counting filters (in-place deletes, §7)."""

import numpy as np
import pytest

from repro.core import BFTree, BFTreeConfig
from repro.storage import Relation, build_stack


@pytest.fixture(scope="module")
def counting_tree(pk_relation):
    return BFTree.bulk_load(
        pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
        unique=True,
    )


class TestConstruction:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            BFTreeConfig(filter_kind="quotient")

    def test_fewer_filters_per_leaf(self, pk_relation):
        plain = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-3),
                                 unique=True)
        counting = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        assert counting.geometry.max_filters < plain.geometry.max_filters
        # 4-bit counters -> roughly a quarter of the filters per page.
        ratio = plain.geometry.max_filters / counting.geometry.max_filters
        assert 3.0 < ratio < 5.0

    def test_space_cost_visible_in_size(self, pk_relation):
        plain = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-3),
                                 unique=True)
        counting = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        assert counting.size_pages > plain.size_pages


class TestSearch:
    def test_all_keys_found(self, counting_tree):
        counting_tree.bind(build_stack("MEM/SSD"))
        for key in range(0, 8192, 149):
            result = counting_tree.search(key)
            assert result.found and result.matches == 1, key
        counting_tree.unbind()

    def test_miss(self, counting_tree):
        assert not counting_tree.search(10**7).found

    def test_false_rate_near_nominal(self, counting_tree):
        stack = build_stack("MEM/SSD")
        counting_tree.bind(stack)
        for key in range(0, 8192, 17):
            counting_tree.search(key)
        probes = 8192 // 17 + 1
        counting_tree.unbind()
        assert stack.stats.false_reads / probes < 1.0


class TestDeletes:
    def test_inplace_delete(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        key = 500
        assert tree.search(key).found
        outcome = tree.delete(key, pid=pk_relation.page_of(key))
        assert outcome.removed and not outcome.tombstoned
        assert not tree.search(key).found

    def test_no_tombstone_created(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        tree.delete(500, pid=pk_relation.page_of(500))
        assert all(not leaf.deleted_keys for leaf in tree.leaves.values())

    def test_neighbours_unaffected(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        tree.delete(500, pid=pk_relation.page_of(500))
        for key in (499, 501, 516, 484):
            assert tree.search(key).found, key

    def test_delete_without_pid_falls_back_to_tombstone(self, pk_relation):
        """No pid on a counting tree: the in-place decrement is
        impossible, and the outcome *surfaces* the tombstone fallback
        instead of silently skewing the §7 fpp accounting."""
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        outcome = tree.delete(600)     # no pid: tombstone path
        assert outcome.removed and outcome.tombstoned
        assert not tree.search(600).found
        # The fallback grew a tombstone list, unlike the in-place path.
        assert any(leaf.deleted_keys for leaf in tree.leaves.values())

    def test_delete_outcome_distinguishes_mechanisms(self, pk_relation):
        """Both §7 delete branches, side by side, on one tree."""
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        inplace = tree.delete(700, pid=pk_relation.page_of(700))
        fallback = tree.delete(701)
        missing = tree.delete(10**9)
        assert inplace.removed and not inplace.tombstoned
        assert fallback.removed and fallback.tombstoned
        assert not missing.removed and not missing.tombstoned
        assert not tree.search(700).found
        assert not tree.search(701).found

    @pytest.mark.parametrize("batch", [False, True])
    def test_nkeys_tracks_reinserted_key(self, pk_relation, batch):
        """A counting tree counts a re-insert of a present key: the key
        then takes two in-place deletes to go, and only the one that
        leaves it absent shrinks its leaf's ``nkeys``."""
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        key, pid = 1000, pk_relation.page_of(1000)
        leaf = next(l for l in tree.leaves.values() if l.covers_key(key))
        start = leaf.nkeys
        tree.insert(key, pid)
        assert leaf.nkeys == start

        def delete():
            if batch:
                return tree.delete_many([key], [pid])[0]
            return tree.delete(key, pid=pid)

        assert delete().removed
        assert tree.search(key).found
        assert leaf.nkeys == start
        assert delete().removed
        assert not tree.search(key).found
        assert leaf.nkeys == start - 1

    def test_plain_tree_rejects_remove_key(self, pk_relation):
        tree = BFTree.bulk_load(pk_relation, "pk", BFTreeConfig(fpp=1e-3),
                                unique=True)
        leaf = tree.leaves_in_order()[0]
        with pytest.raises(ValueError):
            leaf.remove_key(1, 0)

    def test_mass_deletes_keep_fpp_flat(self):
        """Delete a third of the keys; the remaining probes' false-read
        rate must not exceed the pre-delete level (the §7 contrast with
        additive-fpp tombstone-free deletion)."""
        keys = np.arange(4096, dtype=np.int64)
        rel = Relation({"pk": keys}, tuple_size=256)
        tree = BFTree.bulk_load(
            rel, "pk", BFTreeConfig(fpp=1e-2, filter_kind="counting"),
            unique=True,
        )

        def false_rate():
            stack = build_stack("MEM/SSD")
            tree.bind(stack)
            for key in range(1, 4096, 9):   # surviving keys (odd start)
                if key % 3 != 0:
                    tree.search(key)
            tree.unbind()
            return stack.stats.false_reads

        before = false_rate()
        for key in range(0, 4096, 3):
            tree.delete(key, pid=rel.page_of(key))
        after = false_rate()
        assert after <= before + 2


class TestDeleteDefects:
    """Known counting-delete defects (ROADMAP item 2), pinned until the
    re-record that mends them: a counting delete decrements the filter
    but leaves the tuple in the relation, so a key the filters still
    test present is found again."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: an in-place delete leaves the key findable "
        "wherever other keys still set its filter bits"))
    def test_deleted_keys_are_not_found(self):
        n = 32768
        rel = Relation({"pk": np.arange(n, dtype=np.int64)}, tuple_size=256)
        tree = BFTree.bulk_load(
            rel, "pk", BFTreeConfig(fpp=0.2, filter_kind="counting"),
            unique=True,
        )
        keys = np.random.default_rng(0).choice(n, 2000, replace=False)
        for key in keys.tolist():
            outcome = tree.delete(key, pid=rel.page_of(key))
            assert outcome.removed and not outcome.tombstoned
        found = [key for key in keys.tolist() if tree.search(key).found]
        assert found == []

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: a counting leaf split rebuilds its children "
        "from the relation, so keys deleted in place come back"))
    def test_split_keeps_inplace_deletes(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=1e-3, filter_kind="counting"),
            unique=True,
        )
        key, pid = 500, pk_relation.page_of(500)
        leaf = next(l for l in tree.leaves.values() if l.covers_key(key))
        assert leaf.nkeys >= leaf.key_capacity     # one more key splits it
        leaves = tree.n_leaves
        assert tree.delete(key, pid=pid).removed
        assert not tree.search(key).found
        tree.insert(key, pid)                      # splits the full leaf
        assert tree.n_leaves == leaves + 1
        assert tree.delete(key, pid=pid).removed
        assert not tree.search(key).found
