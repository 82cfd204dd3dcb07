"""Structural sanitizer corruption tests.

Each test seeds one precise corruption into a healthy structure and
asserts the sanitizer catches it with a diagnostic naming the violated
invariant — the four scenarios the issue calls for (leaf chain, Bloom
filter accounting, FD-Tree tombstones, shard routing) plus the
enablement plumbing (env switch, ``force``, batch-mutation hooks).
"""

import numpy as np
import pytest

from repro.analysis.sanitize import (
    ENV_VAR,
    StructuralCorruption,
    check,
    check_bplus,
    check_fd,
    check_sharded,
    check_tree,
    enabled,
    force,
    maybe_check,
)
from repro.api import OP_INSERT, make_index
from repro.service import Router, ShardedIndex
from repro.service.routing import RouteEntry
from repro.storage.relation import Relation
from repro.workloads import MixedTrace
from repro.workloads.mixed import MIXES

FPP = 1e-3


@pytest.fixture()
def bf(pk_relation):
    return make_index("bf", pk_relation, "pk", unique=True, fpp=FPP)


@pytest.fixture()
def bplus(pk_relation):
    return make_index("bplus", pk_relation, "pk", unique=True, fpp=FPP)


@pytest.fixture()
def fd(pk_relation):
    return make_index("fd", pk_relation, "pk", unique=True, fpp=FPP)


@pytest.fixture()
def sharded(pk_relation):
    return ShardedIndex.build(pk_relation, "pk", n_shards=4, kind="bf",
                              unique=True, fpp=FPP)


@pytest.fixture(autouse=True)
def _reset_force():
    yield
    force(None)


def chain_of(tree):
    leaves = sorted(tree.leaves.values(), key=lambda l: l.node_id)
    assert len(leaves) >= 3, "fixture tree too small to corrupt"
    return leaves


# ======================================================================
# healthy structures pass
# ======================================================================
def test_healthy_structures_pass(bf, bplus, fd, sharded):
    check_tree(bf)
    check_bplus(bplus)
    check_fd(fd)
    check_sharded(sharded)


# ======================================================================
# scenario 1: leaf-chain corruption
# ======================================================================
class TestLeafChain:
    def test_dangling_next_pointer(self, bf):
        leaves = chain_of(bf)
        tail = next(l for l in leaves if l.next_leaf_id is None)
        tail.next_leaf_id = max(bf.leaves) + 999
        with pytest.raises(StructuralCorruption,
                           match="names unknown leaf"):
            check_tree(bf)

    def test_severed_chain_grows_second_head(self, bf):
        leaves = chain_of(bf)
        leaves[1].next_leaf_id = None
        with pytest.raises(StructuralCorruption, match="heads"):
            check_tree(bf)

    def test_full_cycle_has_no_head(self, bf):
        leaves = chain_of(bf)
        tail = next(l for l in leaves if l.next_leaf_id is None)
        head = next(l for l in leaves if l.prev_leaf_id is None)
        tail.next_leaf_id = head.node_id
        with pytest.raises(StructuralCorruption,
                           match="no head .*cycle"):
            check_tree(bf)

    def test_prev_pointer_disagreement(self, bf):
        leaves = chain_of(bf)
        leaves[2].prev_leaf_id = leaves[0].node_id
        with pytest.raises(StructuralCorruption,
                           match="prev pointer .* disagrees"):
            check_tree(bf)

    def test_cross_leaf_key_inversion(self, bf):
        leaves = chain_of(bf)
        head = next(l for l in leaves if l.prev_leaf_id is None)
        head.max_key = 10**9
        with pytest.raises(StructuralCorruption,
                           match="key order inverted across leaves"):
            check_tree(bf)

    def test_bplus_chain_checked_too(self, bplus):
        leaves = chain_of(bplus)
        leaves[1].next_leaf_id = None
        with pytest.raises(StructuralCorruption, match="heads"):
            check_bplus(bplus)

    def test_bplus_key_order_in_leaf(self, bplus):
        leaves = chain_of(bplus)
        target = next(l for l in leaves if len(l.keys) >= 2)
        target.keys[0], target.keys[1] = target.keys[1], target.keys[0]
        with pytest.raises(StructuralCorruption,
                           match="keys not strictly increasing"):
            check_bplus(bplus)


# ======================================================================
# scenario 2: Bloom-filter accounting corruption
# ======================================================================
class TestFilterAccounting:
    def test_nkeys_exceeds_filter_inserts(self, bf):
        leaf = next(l for l in chain_of(bf) if l.nfilters)
        leaf.nkeys = sum(leaf.counts) + 7
        # Keep the capacity-overflow bound satisfied so the filter
        # accounting check is the one that fires.
        leaf.extra_inserts = leaf.nkeys
        with pytest.raises(StructuralCorruption,
                           match="exceeds total filter insert count"):
            check_tree(bf)

    def test_negative_nkeys(self, bf):
        leaf = chain_of(bf)[0]
        leaf.nkeys = -1
        with pytest.raises(StructuralCorruption, match="negative nkeys"):
            check_tree(bf)


# ======================================================================
# scenario 2b: directory edited behind InnerTree's back
# ======================================================================
class TestDirectory:
    @pytest.mark.parametrize("kind", ["bf", "bplus"])
    def test_node_edited_behind_the_table(self, kind, request):
        tree = request.getfixturevalue(kind)
        assert tree.inner.root_id is not None
        table = tree.inner.routing_table()
        check(tree)
        # Shift one separator inside its neighbours: fences stay sorted
        # and the chain order holds, so only the cached table is stale.
        node = next(n for n in tree.inner.nodes.values() if n.level == 1)
        node.keys[0] += 1
        assert tree.inner.routing_table() is table
        with pytest.raises(StructuralCorruption,
                           match="cached routing table is stale"):
            check(tree)

    def test_no_cached_table_is_fine(self, bf):
        check_tree(bf)
        assert bf.inner._table is None     # checking does not fill it


# ======================================================================
# scenario 3: FD-Tree tombstone corruption
# ======================================================================
class TestFDTombstones:
    def test_out_of_range_tombstone_victim(self, fd):
        level = next(lv for lv in fd.levels if lv)
        ghost = fd.relation.ntuples + 5
        level.append((level[-1][0] + 1, -ghost - 1))
        with pytest.raises(StructuralCorruption,
                           match="outside the relation's"):
            check_fd(fd)

    def test_unannihilated_pair_in_merge_level(self, fd):
        level = next(lv for lv in fd.levels if lv)
        i = len(level) // 2
        key, tid = level[i]
        assert tid >= 0
        # (key, -tid-1) sorts immediately before (key, tid): the run
        # stays sorted, the victim stays in range — only the
        # annihilation invariant is violated.
        level.insert(i, (key, -tid - 1))
        with pytest.raises(StructuralCorruption,
                           match="a merge should have annihilated"):
            check_fd(fd)

    def test_unsorted_level(self, fd):
        level = next(lv for lv in fd.levels if len(lv) >= 2)
        level[0], level[-1] = level[-1], level[0]
        with pytest.raises(StructuralCorruption, match="not sorted"):
            check_fd(fd)


# ======================================================================
# scenario 4: shard routing corruption
# ======================================================================
class TestShardRouting:
    def test_routing_entry_vs_shard_lo_key(self, sharded):
        assert len(sharded.shards) >= 2, "fixture did not shard"
        sharded.shards[1].lo_key += 1
        with pytest.raises(StructuralCorruption,
                           match="stale routing entry"):
            check_sharded(sharded)

    def test_boundary_shifted_past_leaf_span(self, sharded):
        # Move the first fence up past shard 1's first leaf: the table
        # entry and the shard's lo_key still agree, but that leaf now
        # holds keys the router would send to the shard on its left.
        assert len(sharded.shards) >= 2, "fixture did not shard"
        shard1 = sharded.shards[1]
        first_leaf = shard1.index.shard_leaves()[0]
        span_lo, _ = shard1.index.shard_leaf_span(first_leaf)
        shard1.lo_key = span_lo + 1
        sharded.table._entries[1] = RouteEntry(lo_key=span_lo + 1,
                                               shard_id=shard1.shard_id)
        sharded.table._rebuild()
        with pytest.raises(StructuralCorruption,
                           match="below the shard's lo fence"):
            check_sharded(sharded)

    def test_stale_routing_entry_after_split(self, sharded):
        # A split that leaves the old fence behind in one layer of the
        # routing state: the table entries move but the cached fence
        # array (what route() actually searches) stays at the parent's
        # layout — the epoch-aware check must catch the disagreement.
        # The session fixture's shards are too small to split (2 leaves
        # each); build a wider one so a shard has >= 4 leaves.
        relation = Relation(
            {"pk": np.arange(32768, dtype=np.int64)},
            tuple_size=256, name="pk-wide",
        )
        sharded = ShardedIndex.build(relation, "pk", n_shards=2, kind="bf",
                                     unique=True, fpp=FPP)
        assert len(sharded.shards) >= 2, "fixture did not shard"
        victim = max(sharded.shards, key=lambda s: s.index.n_leaves)
        assert victim.index.n_leaves >= 4, "fixture shard too small to split"
        left_id, right_id = sharded.split_shard(victim.shard_id)
        check_sharded(sharded)        # healthy at the new epoch
        o = sharded.table.ordinal_of(right_id)
        entry = sharded.table._entries[o]
        sharded.table._entries[o] = RouteEntry(
            lo_key=entry.lo_key + 1, shard_id=entry.shard_id
        )
        with pytest.raises(StructuralCorruption,
                           match="stale routing state"):
            check_sharded(sharded)
        # Even once the fence cache is rebuilt, the entry still
        # disagrees with the live shard it names.
        sharded.table._rebuild()
        with pytest.raises(StructuralCorruption,
                           match="stale routing entry"):
            check_sharded(sharded)

    def test_routing_ids_vs_registered_shards(self, sharded):
        assert len(sharded.shards) >= 2, "fixture did not shard"
        sid = sharded.table.id_at(0)
        ghost = sharded._by_id.pop(sid)
        sharded._by_id[ghost.shard_id + 1000] = ghost
        sharded._shards_cache = None
        with pytest.raises(StructuralCorruption,
                           match="disagree with registered shards"):
            check_sharded(sharded)

    def test_corrupt_member_tree_found_recursively(self, sharded):
        assert len(sharded.shards) >= 2, "fixture did not shard"
        tree = sharded.shards[0].index
        leaf = next(l for l in tree.leaves.values() if l.nfilters)
        leaf.nkeys = sum(leaf.counts) + 7
        leaf.extra_inserts = leaf.nkeys
        with pytest.raises(StructuralCorruption,
                           match="exceeds total filter insert count"):
            check_sharded(sharded)


# ======================================================================
# enablement plumbing
# ======================================================================
class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        force(None)
        assert not enabled()

    @pytest.mark.parametrize("value,on", [
        ("1", True), ("yes", True), ("TRUE", True),
        ("0", False), ("false", False), ("no", False), ("", False),
    ])
    def test_env_switch(self, monkeypatch, value, on):
        monkeypatch.setenv(ENV_VAR, value)
        force(None)
        assert enabled() is on

    def test_force_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        force(False)
        assert not enabled()
        force(True)
        assert enabled()

    def test_maybe_check_is_noop_when_disabled(self, bf):
        chain_of(bf)[0].nkeys = -1
        force(False)
        maybe_check(bf)  # corrupted, but sanitizing is off

    def test_maybe_check_raises_when_enabled(self, bf):
        chain_of(bf)[0].nkeys = -1
        force(True)
        with pytest.raises(StructuralCorruption):
            maybe_check(bf)

    def test_unknown_objects_pass(self):
        force(True)
        maybe_check(object())
        check("not an index")

    def test_insert_many_hook_fires(self, bf):
        # The batch write path validates the tree after mutating it.
        force(True)
        last_pid = max(l.min_pid for l in bf.leaves.values())
        leaf = next(l for l in chain_of(bf) if l.nfilters)
        leaf.nkeys = sum(leaf.counts) + 7
        leaf.extra_inserts = leaf.nkeys
        with pytest.raises(StructuralCorruption):
            bf.insert_many([10**7], [last_pid])

    def test_sharded_insert_many_hook_fires(self, sharded):
        # A Router replay validates the whole service after each shard
        # chunk that inserts; the trace carries tuple ids.
        force(True)
        last_tid = sharded.relation.ntuples - 1
        sharded.bind("MEM/SSD")
        sharded.shards[1].lo_key += 1
        trace = MixedTrace(
            ops=np.array([OP_INSERT], dtype=np.int8),
            keys=np.array([10**7], dtype=np.int64),
            tids=np.array([last_tid], dtype=np.int64),
            scan_widths=np.zeros(1, dtype=np.int64),
            mix=MIXES["insert_heavy"], skew="uniform", theta=0.99, seed=0,
        )
        with pytest.raises(StructuralCorruption):
            Router(sharded).replay(trace)

    def test_sanitize_passes_during_real_mutation(self, bf):
        # A genuine mutation batch under the sanitizer: no false alarms.
        force(True)
        last_pid = max(l.min_pid for l in bf.leaves.values())
        keys = list(range(10**6, 10**6 + 64))
        bf.insert_many(keys, [last_pid] * 64)
        bf.delete_many(keys[:32])
        check_tree(bf)
