"""``BFTree.apply_many``: one ordered call for reads, scans, inserts and
deletes.

The engine plans a whole mixed chunk at once (one routing pass, one hash
call) and walks it in order, deferring only charge-free work.  Its
contract is the per-op loop: applying the same ops one by one through
the scalar ``search`` / ``insert`` / ``range_scan`` / ``delete`` calls
must give the same results, tree state (filter bitsets included),
IOStats, simulated clock and per-op latencies (floats to
``rtol=1e-9``).  The property test drives that over arbitrary
interleavings on trees whose leaves split mid-chunk, a partitioned
column, counting filters, ``str`` keys and a warm buffer pool.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from per_op_replay import apply_per_op

from repro.api import OP_DELETE, OP_INSERT, OP_READ, OP_SCAN, as_scalar
from repro.core import BFTree, BFTreeConfig, bf_leaf
from repro.core.bf_leaf import BFLeaf
from repro.core.bloom import page_to_rows
from repro.storage import Relation, build_stack
from repro.workloads import tpch

N_KEYS = 4096
N_NOVEL = 48


def _tree_fingerprint(tree):
    out = []
    for leaf in tree.leaves_in_order():
        n = leaf.nfilters
        filters = (list(leaf.counts), page_to_rows(leaf.page, n).tobytes(),
                   None if leaf.counters is None
                   else leaf.counters[:n].tobytes())
        out.append((
            leaf.node_id, leaf.min_pid, leaf.min_key, leaf.max_key,
            leaf.nkeys, leaf.pages_covered, sorted(leaf.deleted_keys),
            filters,
        ))
    return out


class World:
    """One relation + tree configuration, and a map from drawn integers
    to ops over it.  ``tombstones`` are deleted before the ops run, so
    re-inserting one makes it visible again."""

    def __init__(self, name, relation, column, config, *, unique,
                 ordered=None, warm=False, str_keys=False):
        self.name = name
        self.relation = relation
        self.column = column
        self.config = config
        self.unique = unique
        self.ordered = ordered
        self.warm = warm
        self.str_keys = str_keys
        self.values = relation.columns[column]
        n = len(self.values)
        self.tombstones = [as_scalar(self.values[t])
                           for t in range(5, n, n // 6)]
        self.layout = self.build()

    def build(self):
        tree = BFTree.bulk_load(self.relation, self.column, self.config,
                                unique=self.unique, ordered=self.ordered)
        for key in self.tombstones:
            tree.delete(key)
        return tree

    def novel(self, x):
        return f"N{x % N_NOVEL:04d}" if self.str_keys else 10**6 + x % N_NOVEL

    def absent(self, x):
        return f"K{2 * (x % N_KEYS) + 1:06d}" if self.str_keys else -1 - x

    def op(self, kind, x):
        n = len(self.values)
        tid = x % n
        last_page = self.relation.npages - 1
        if kind == "read":
            pick = x % 10
            if pick < 6:
                key = as_scalar(self.values[tid])
            elif pick < 8:
                key = self.tombstones[x % len(self.tombstones)]
            elif pick < 9 and self.ordered is not False:
                key = self.novel(x // 10)
            else:
                key = self.absent(x)
            return (OP_READ, key, None)
        if kind == "insert":
            if x % 3 == 0 and self.ordered is not False:
                return (OP_INSERT, self.novel(x // 3), last_page)
            if x % 3 == 1:
                key = self.tombstones[x % len(self.tombstones)]
            else:
                key = as_scalar(self.values[tid])
            if self.ordered is not False:
                tid = int(np.searchsorted(self.values, key))
                return (OP_INSERT, key, self.relation.page_of(tid))
            # Partitioned data: the key's tuples may lie outside the leaf
            # it routes to; index it on that leaf's last page, which
            # stays inside the range of whichever child a split routes
            # it to.
            leaf_id, _ = self.layout.inner.route(key)
            leaf = self.layout.leaves[leaf_id]
            return (OP_INSERT, key, leaf.min_pid + leaf.pages_covered - 1)
        if kind == "delete":
            # A novel key (on the page inserts index it on), an absent
            # key or a present one (on its tuple's page), with or
            # without the page id.
            pick = x % 3
            if pick == 0 and self.ordered is not False:
                key, pid = self.novel(x // 3), last_page
            elif pick < 2:
                key, pid = self.absent(x), last_page
            else:
                key, pid = as_scalar(self.values[tid]), \
                    self.relation.page_of(tid)
            return (OP_DELETE, key, pid if x // 3 % 2 else None)
        lo = as_scalar(self.values[tid])
        hi = as_scalar(self.values[min(n - 1, tid + 1 + x % 40)])
        return (OP_SCAN, min(lo, hi), max(lo, hi))


def _pk_relation(n=N_KEYS):
    return Relation({"k": np.arange(n, dtype=np.int64)}, tuple_size=256)


def _str_relation(n=N_KEYS // 2):
    keys = np.array([f"K{2 * i:06d}" for i in range(n)], dtype=object)
    return Relation({"k": keys}, tuple_size=256)


WORLDS = {
    w.name: w for w in (
        World("splits", _pk_relation(), "k",
              BFTreeConfig(fpp=1e-3, page_size=512), unique=True),
        World("partitioned", tpch.generate(N_KEYS, seed=5), "commitdate",
              BFTreeConfig(fpp=1e-3), unique=False, ordered=False),
        World("counting", _pk_relation(), "k",
              BFTreeConfig(fpp=1e-3, page_size=1024,
                           filter_kind="counting"), unique=True),
        World("str_keys", _str_relation(), "k",
              BFTreeConfig(fpp=1e-3, page_size=1024), unique=True,
              str_keys=True),
        World("warm_pool", _pk_relation(), "k",
              BFTreeConfig(fpp=1e-3, page_size=512), unique=True,
              warm=True),
    )
}


def _check_against_per_op(world, ops):
    ref_tree, tree = world.build(), world.build()
    ref_stack, stack = build_stack("MEM/SSD"), build_stack("MEM/SSD")
    ref_tree.bind(ref_stack, warm=world.warm)
    tree.bind(stack, warm=world.warm)
    want, want_lat = apply_per_op(ref_tree, ops, ref_stack)
    sink: list[float] = []
    got = tree.apply_many(ops, latency_sink=sink)
    assert got == want
    assert stack.stats.snapshot() == ref_stack.stats.snapshot()
    assert math.isclose(stack.elapsed(), ref_stack.elapsed(),
                        rel_tol=1e-9)
    np.testing.assert_allclose(sink, want_lat, rtol=1e-9)
    assert _tree_fingerprint(tree) == _tree_fingerprint(ref_tree)
    return ref_tree


op_lists = st.lists(
    st.tuples(st.sampled_from(["read", "read", "read", "insert", "insert",
                               "scan", "delete"]),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1, max_size=120,
)


@pytest.mark.parametrize("world", sorted(WORLDS))
@given(drawn=op_lists)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_apply_many_equals_per_op_loop(world, drawn):
    w = WORLDS[world]
    _check_against_per_op(w, [w.op(kind, x) for kind, x in drawn])


@pytest.mark.parametrize("world", ["splits", "warm_pool", "str_keys"])
def test_splits_mid_chunk(world):
    """Novel inserts fill the last leaf and split it while reads and
    scans queued before the split still wait for their filter tests."""
    w = WORLDS[world]
    rng = np.random.default_rng(11)
    ops = []
    for j in range(600):
        kind = ("insert", "read", "read", "scan")[j % 4]
        ops.append(w.op(kind, 3 * int(rng.integers(0, 10**5))))
    before = w.build().n_leaves
    assert _check_against_per_op(w, ops).n_leaves > before


def _two_leaf_reads(w, tree):
    """60 reads: interleaved over two adjacent leaves of an ordered
    tree; spread over the whole column (overlapping leaf ranges
    included) of a partitioned one."""
    if w.ordered is False:
        values = sorted(set(w.values.tolist()))
        return values[::max(1, len(values) // 60)][:60]
    pair = tree.leaves_in_order()[1:3]
    keys = []
    for x in range(60):
        leaf = pair[x % 2]
        keys.append(leaf.min_key + (7 * x) % (leaf.max_key - leaf.min_key + 1))
    return keys


@pytest.mark.parametrize("world", ["warm_pool", "partitioned"])
def test_read_run_charges_each_group_once(world, monkeypatch):
    """A read-only chunk is one read run.  Its reads into one leaf that
    visit the same neighbour leaves make one real descent charge between
    them; the rest replay it, and every read is still charged, timed and
    given a latency as in the per-op loop."""
    w = WORLDS[world]
    tree = w.build()
    tree.bind(build_stack("MEM/SSD"), warm=w.warm)
    keys = _two_leaf_reads(w, tree)
    groups = set()
    for key in keys:
        leaf_id, _ = tree.inner.route(key)
        groups.add((leaf_id,
                    tree._neighbour_ids(key, tree.leaves[leaf_id])))
    assert len({leaf_id for leaf_id, _ in groups}) == 2
    # Partitioned: some reads also visit the other leaf as a neighbour.
    assert any(nbrs for _, nbrs in groups) == (w.ordered is False)
    descents = []
    real = BFTree._charge_descent

    def counted(self, leaf, path):
        descents.append(leaf.node_id)
        real(self, leaf, path)

    monkeypatch.setattr(BFTree, "_charge_descent", counted)
    tree.apply_many([(OP_READ, key, None) for key in keys])
    monkeypatch.undo()
    assert sorted(descents) == sorted(leaf_id for leaf_id, _ in groups)
    _check_against_per_op(w, [(OP_READ, key, None) for key in keys])


def test_read_groups_outlive_read_runs(monkeypatch):
    """A visible insert into another leaf ends a read run, not the
    charge queues: reads into one leaf on both sides of it still make
    one real descent charge between them.  Only an insert into their
    own leaf that is not a known duplicate, a split or the chunk end
    flushes a queue."""
    w = WORLDS["warm_pool"]
    tree = w.build()
    tree.bind(build_stack("MEM/SSD"), warm=True)
    reads = [(OP_READ, key, None) for key in _two_leaf_reads(w, tree)]
    read_leaves = {tree.inner.route(key)[0] for _, key, _ in reads}
    # Re-inserting a tombstoned key makes it visible again.
    key = next(k for k in w.tombstones
               if tree.inner.route(k)[0] not in read_leaves)
    insert_leaf, _ = tree.inner.route(key)
    ops = reads + [(OP_INSERT, key, w.relation.page_of(key))] + reads
    descents = []
    real = BFTree._charge_descent

    def counted(self, leaf, path):
        descents.append(leaf.node_id)
        real(self, leaf, path)

    monkeypatch.setattr(BFTree, "_charge_descent", counted)
    leaves = tree.n_leaves
    tree.apply_many(ops)
    monkeypatch.undo()
    assert tree.n_leaves == leaves
    assert sorted(descents) == sorted([*read_leaves, insert_leaf])
    _check_against_per_op(w, ops)


def _invisible(leaf, key, pid):
    """Would re-inserting ``key`` on ``pid`` into ``leaf`` be a known
    duplicate that no read or scan can see?"""
    return (leaf.duplicate_prehashed(pid, leaf.key_positions(key))
            and leaf.covers_key(key) and leaf.covers_pid(pid)
            and key not in leaf.deleted_keys)


@pytest.mark.parametrize("world", ["warm_pool", "counting"])
def test_invisible_duplicates_stay_inside_the_read_run(world, monkeypatch):
    """Re-inserts no read can see do not end a read run: reads over two
    leaves interleaved with them are still tested in one flush, one
    filter gather over both leaves' pages, and charge each (leaf,
    neighbours) group once, and each leaf's queued duplicates charge
    once more, in one flush."""
    w = WORLDS[world]
    tree = w.build()
    tree.bind(build_stack("MEM/SSD"), warm=w.warm)
    keys = _two_leaf_reads(w, tree)
    live = [key for key in keys if key not in w.tombstones]
    ops = []
    for x, key in enumerate(keys):
        ops.append((OP_READ, key, None))
        if x % 3 == 1:
            dup = live[(5 * x) % len(live)]
            ops.append((OP_INSERT, dup, w.relation.page_of(int(dup))))
    leaf_of = {}
    for code, key, arg in ops:
        leaf_id, _ = tree.inner.route(key)
        leaf_of[key] = leaf_id
        if code == OP_INSERT:
            assert _invisible(tree.leaves[leaf_id], key, arg)
    queues = {leaf_of[key] for code, key, _ in ops if code == OP_INSERT}
    assert len(queues) == 2
    descents, gathers = [], []
    real_descent, real_match = BFTree._charge_descent, BFLeaf._match_matrix

    def counted_descent(self, leaf, path):
        descents.append(leaf.node_id)
        real_descent(self, leaf, path)

    def counted_match(pages, which, positions):
        gathers.append({id(page) for page in pages})
        return real_match(pages, which, positions)

    monkeypatch.setattr(BFTree, "_charge_descent", counted_descent)
    # A plain function, as the span tracer installs it: the engine must
    # call the kernel through the class.
    monkeypatch.setattr(BFLeaf, "_match_matrix", counted_match)
    tree.apply_many(ops)
    monkeypatch.undo()
    # Ordered data: one group per leaf, so each leaf charges one read
    # group and one duplicate queue, and one flush tests both leaves.
    assert sorted(descents) == sorted(2 * list(queues))
    assert gathers == [{id(tree.leaves[leaf_id].page) for leaf_id in queues}]
    _check_against_per_op(w, ops)


@pytest.mark.parametrize("world", ["warm_pool", "counting"])
def test_delete_follows_a_queued_duplicate_of_its_key(world):
    """A known duplicate re-insert no read can see waits in its leaf's
    charge queue; a delete of the same key after it still applies after
    it, as in the per-op loop: the key ends tombstoned (plain filters)
    or counted back down to its one bulk-loaded add (counting
    filters), and a read after the delete sees that."""
    w = WORLDS[world]
    tree = w.build()
    tree.bind(build_stack("MEM/SSD"), warm=w.warm)
    key = next(k for k in _two_leaf_reads(w, tree) if k not in w.tombstones)
    pid = w.relation.page_of(int(key))
    leaf_id, _ = tree.inner.route(key)
    leaf = tree.leaves[leaf_id]
    assert _invisible(leaf, key, pid)
    counting = leaf.counters is not None
    positions = leaf.key_positions(key)
    group = leaf.group_of(pid)
    before = None if not counting else leaf.counters[group][positions].copy()
    ops = [(OP_READ, key, None), (OP_INSERT, key, pid),
           (OP_DELETE, key, pid if counting else None), (OP_READ, key, None)]
    results = tree.apply_many(ops)
    assert results[2].removed and results[2].tombstoned != counting
    assert results[3].found == counting
    if counting:
        np.testing.assert_array_equal(leaf.counters[group][positions],
                                      before)
    else:
        assert key in leaf.deleted_keys
    _check_against_per_op(w, ops)


def test_reinsert_after_an_inplace_delete_retests_its_filter():
    """An in-place delete of the counting tree's only add of a key clears
    bits its filter's plan flags were computed from: a re-insert of the
    key later in the chunk is no longer a known duplicate and sets them
    again, as in the per-op loop."""
    w = WORLDS["counting"]
    tree = w.build()
    key = next(k for k in _two_leaf_reads(w, tree) if k not in w.tombstones)
    pid = w.relation.page_of(int(key))
    leaf = tree.leaves[tree.inner.route(key)[0]]
    assert _invisible(leaf, key, pid)
    ops = [(OP_DELETE, key, pid), (OP_INSERT, key, pid),
           (OP_READ, key, None)]
    tree.bind(build_stack("MEM/SSD"))
    assert tree.apply_many(ops)[2].found
    _check_against_per_op(w, ops)


def test_plain_tree_delete_many_hashes_nothing(monkeypatch):
    """A plain tree's deletes read no filter positions: a chunk of them
    makes no hash call; a counting tree's chunk makes one."""
    calls = []
    real = bf_leaf.bloom_positions_batch

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(bf_leaf, "bloom_positions_batch", counted)
    keys = [5, 77, 4000, -3, 10**6]
    for world in ("splits", "counting"):
        w = WORLDS[world]
        pids = [w.relation.page_of(k) for k in keys[:3]] + \
            [None, w.relation.npages - 1]
        tree = w.build()
        tree.bind(build_stack("MEM/SSD"))
        del calls[:]
        tree.delete_many(keys[:1])
        tree.delete_many(keys, pids)
        assert calls == ([] if world == "splits" else [1, len(keys)])


PPB3 = {
    kind: World(f"ppb3_{kind}", _pk_relation(), "k",
                BFTreeConfig(fpp=1e-3, page_size=1024, pages_per_bf=3,
                             filter_kind=kind), unique=False)
    for kind in ("plain", "counting")
}


def _visible_duplicate(w, tree, kind):
    """A re-insert its leaf's filter already holds, which a read of the
    key can see: of a tombstoned key, on a page of the key's filter
    group past the leaf's page coverage, or of an absent key outside
    the leaf's key range that the filter reports present."""
    chain = tree.leaves_in_order()
    leaf = chain[0]
    g = leaf.geometry.pages_per_bf
    if kind == "tombstone":
        key = next(k for k in w.tombstones if leaf.covers_key(k))
        return key, w.relation.page_of(int(key))
    if kind == "past_coverage":
        group = leaf.nfilters - 1
        first = leaf.min_pid + group * g
        end = leaf.min_pid + leaf.pages_covered
        assert end < first + g          # the last group has room
        key = first * w.relation.tuples_per_page
        assert leaf.covers_key(key) and key not in leaf.deleted_keys
        return key, end
    # Keys past the last leaf's range route to it.
    leaf = chain[-1]
    absent = np.arange(10**6, 10**6 + 50_000)
    rows, groups = BFLeaf._match_matrix(
        [leaf.page], np.zeros(len(absent), np.intp),
        leaf.hash_batch(absent))
    assert not leaf.covers_key(int(absent[rows[0]]))
    return int(absent[rows[0]]), leaf.min_pid + g * int(groups[0])


@pytest.mark.parametrize("filter_kind", sorted(PPB3))
@pytest.mark.parametrize("kind", ["tombstone", "past_coverage",
                                  "out_of_range"])
def test_visible_duplicate_applies_at_its_turn(kind, filter_kind):
    """A known duplicate a read can see is applied at its turn, as any
    other insert: the read after it sees it and the read before does
    not, exactly as in the per-op loop."""
    w = PPB3[filter_kind]
    tree = w.build()
    key, pid = _visible_duplicate(w, tree, kind)
    leaf_id, _ = tree.inner.route(key)
    leaf = tree.leaves[leaf_id]
    assert leaf.duplicate_prehashed(pid, leaf.key_positions(key))
    assert not _invisible(leaf, key, pid)
    ops = [(OP_READ, key, None), (OP_INSERT, key, pid),
           (OP_READ, key, None)]
    tree.bind(build_stack("MEM/SSD"))
    before, _, after = tree.apply_many(ops)
    assert before != after
    _check_against_per_op(w, ops)


def test_read_sees_exactly_the_inserts_before_it():
    w = WORLDS["splits"]
    key = w.tombstones[0]
    page = w.relation.page_of(int(key))
    tree = w.build()
    tree.bind(build_stack("MEM/SSD"))
    before, _, after, scan = tree.apply_many([
        (OP_READ, key, None), (OP_INSERT, key, page), (OP_READ, key, None),
        (OP_SCAN, key, key),
    ])
    assert not before.found
    assert after.found and after.tids == [int(key)]
    assert scan.matches == 1


def test_unknown_op_code_raises_before_applying():
    w = WORLDS["splits"]
    tree = w.build()
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    state = _tree_fingerprint(tree)
    with pytest.raises(ValueError, match="unknown op code 7"):
        tree.apply_many([(OP_INSERT, 10**6, w.relation.npages - 1),
                         (7, 1, None)])
    assert stack.stats.snapshot() == build_stack("MEM/SSD").stats.snapshot()
    assert _tree_fingerprint(tree) == state


def test_negative_insert_page_raises_like_the_scalar_insert():
    """-1 is also the plan's read sentinel; a lone insert with that page
    must still be planned as an insert and fail as ``insert`` does."""
    w = WORLDS["splits"]
    with pytest.raises(ValueError, match="page -1 below leaf range") as err:
        w.build().insert(5, -1)
    for call in (lambda t: t.insert_many([5], [-1]),
                 lambda t: t.apply_many([(OP_INSERT, 5, -1)])):
        with pytest.raises(ValueError) as got:
            call(w.build())
        assert str(got.value) == str(err.value)

