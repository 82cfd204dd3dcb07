"""The vectorized batch-probe engine and the delete-path regressions.

The engine's contract: ``search_many(keys)`` produces exactly what N
sequential ``search`` calls produce — the same per-key ``SearchResult``
(found / matches / tids / page counts), the same ``IOStats`` counters and
the same simulated clock charges (equal up to float summation order).
``BFTree.search`` is itself a batch of one, so on BF-Trees these tests
check that a batch of N equals N batches of one: they guard the per-leaf
grouping and shared hashing of a batch, while ``tests/test_read_golden.py``
pins the numbers themselves to recorded output.  The property tests
here drive that contract over random relations, probe mixes and
tombstones; the regression tests pin the two delete-path bugs the batch
path must not inherit (tombstone-then-split and delete-then-reinsert
through the bulk-load path).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.results import SearchResult
from repro.baselines import BPlusTree
from repro.core import BFTree, BFTreeConfig, BloomFilter
from repro.core.bf_leaf import BFLeaf, BFLeafGeometry
from repro.core.bloom import page_from_rows, page_to_rows, row_test_positions
from repro.core.hashing import bloom_positions_batch, keys_to_int_array
from repro.storage import IOStats, Relation, build_stack
from repro.storage.config import CPU_TUPLE_SCAN
from repro.workloads import point_probes

sorted_keys = st.lists(
    st.integers(min_value=0, max_value=10**5), min_size=1, max_size=300
).map(sorted)


def _relation_from(keys):
    return Relation({"k": np.asarray(keys, dtype=np.int64)}, tuple_size=256)


def _replay(tree, keys, batch):
    """Probe ``keys`` on a fresh stack; return (results, io, clock)."""
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    try:
        if batch:
            results = tree.search_many(keys)
        else:
            results = [tree.search(key) for key in keys]
    finally:
        tree.unbind()
    return results, stack.stats.snapshot(), stack.elapsed()


def _assert_batch_equals_scalar(tree, probe_keys):
    scalar, io_scalar, clock_scalar = _replay(tree, probe_keys, batch=False)
    batch, io_batch, clock_batch = _replay(tree, probe_keys, batch=True)
    assert batch == scalar            # SearchResult dataclass equality:
    assert io_batch == io_scalar      # found, matches, pages, tids ...
    assert math.isclose(clock_batch, clock_scalar, rel_tol=1e-9)


# ----------------------------------------------------------------------
# Bloom filter / BF-leaf layers
# ----------------------------------------------------------------------
def _page_test_one(bf, probes):
    """``probes`` batch-tested against ``bf``'s bits as a one-filter
    sliced page."""
    positions = bloom_positions_batch(keys_to_int_array(probes), bf.k,
                                      bf.nbits, bf.seed)
    page = page_from_rows(bf._words[None, :], bf.nbits)
    rows, _ = BFLeaf._match_matrix([page], np.zeros(len(probes), np.intp),
                                   positions)
    hits = np.zeros(len(probes), dtype=bool)
    hits[rows] = True
    return hits.tolist()


def _build_runs(leaf, key, groups):
    """Reference run builder: merge one key's matched ``groups`` into
    fetchable ``(first_pid, npages)`` runs, one group at a time.

    ``key`` must not be tombstoned; it is only used for the spill-back
    test on the leaf's minimum key.  Each group's pages are
    ``BFLeaf.group_page_range``, clipped to the leaf's coverage.
    """
    runs = []
    if (leaf.spill_back_pages and leaf.min_key is not None
            and key == leaf.min_key):
        runs.append((leaf.min_pid - leaf.spill_back_pages,
                     leaf.spill_back_pages))
    for group in groups:
        first, npages = leaf.group_page_range(group)
        if npages <= 0:
            continue
        if runs and runs[-1][0] + runs[-1][1] == first:
            runs[-1] = (runs[-1][0], runs[-1][1] + npages)
        else:
            runs.append((first, npages))
    return runs


def _scalar_groups(leaf, key):
    """Filters of ``leaf`` whose bits hold ``key``, tested one by one."""
    positions = leaf.key_positions(key)
    rows = page_to_rows(leaf.page, leaf.nfilters)
    return [i for i in range(leaf.nfilters)
            if row_test_positions(rows[i], positions)]


class TestBatchFilterLayers:
    @given(
        keys=st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                      min_size=1, max_size=80, unique=True),
        probes=st.lists(st.integers(min_value=-(2**62), max_value=2**62),
                        min_size=1, max_size=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_might_contain_many_equals_scalar(self, keys, probes):
        """A filter page's batch test equals the scalar filter's."""
        bf = BloomFilter(512, 5, seed=11)
        for key in keys:
            bf.add(key)
        assert _page_test_one(bf, probes) == [bf.might_contain(p)
                                              for p in probes]

    def test_might_contain_many_mixed_width_keys(self):
        """A python list mixing signs and >int64 magnitudes must not be
        coerced to float64 (which would hash rounded values and produce
        false negatives the scalar path never produces)."""
        bf = BloomFilter(512, 5, seed=3)
        keys = [2**63 + 1, -1, 2**64 + 17, 0, "abc"]
        for key in keys:
            bf.add(key)
        assert all(_page_test_one(bf, keys))
        assert (_page_test_one(bf, [2**63 + 2, -2])
                == [bf.might_contain(2**63 + 2), bf.might_contain(-2)])

    def test_variant_filters_batch_equals_scalar(self):
        """A counting leaf, after in-place removals, probes in batch
        exactly as key by key against each filter's bits."""
        geo = BFLeafGeometry.plan(0.05, 10.0, filter_kind="counting")
        leaf = BFLeaf(node_id=7, geometry=geo, min_pid=0)
        for key in range(0, 120, 3):
            leaf.add(key, key % 4)
        assert leaf.remove_key(30, 30 % 4)
        probes = list(range(200))
        assert leaf.matching_page_runs_many(probes) == [
            _build_runs(leaf, p, _scalar_groups(leaf, p)) for p in probes
        ]

    @given(keys=sorted_keys)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_leaf_batch_probing_equals_scalar(self, keys):
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.05))
        probes = sorted(set(keys))[:30] + [max(keys) + 1, min(keys) + 1]
        for leaf in tree.leaves_in_order():
            runs = leaf.matching_page_runs_many(probes)
            for j, probe in enumerate(probes):
                # Oracle: Algorithm 1's per-filter membership tests,
                # one scalar bit test per filter.
                groups = _scalar_groups(leaf, probe)
                expected = ([] if probe in leaf.deleted_keys
                            else _build_runs(leaf, probe, groups))
                assert runs[j] == expected
                assert runs[j] == leaf.matching_page_runs_many([probe])[0]


# ----------------------------------------------------------------------
# BF-Tree / harness layers
# ----------------------------------------------------------------------
class TestSearchManyEqualsSearch:
    @given(keys=sorted_keys, fpp=st.sampled_from([0.2, 0.01, 1e-4]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_results_io_and_clock(self, keys, fpp):
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=fpp))
        probes = (sorted(set(keys))[:40]
                  + [min(keys) - 1, max(keys) + 1, max(keys) + 1000])
        _assert_batch_equals_scalar(tree, probes)

    @given(keys=sorted_keys)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_with_tombstones(self, keys):
        rel = _relation_from(keys)
        tree = BFTree.bulk_load(rel, "k", BFTreeConfig(fpp=0.01))
        distinct = sorted(set(keys))
        for key in distinct[::2]:
            tree.delete(key)
        _assert_batch_equals_scalar(tree, distinct + [max(keys) + 1])

    def test_unique_index_with_misses(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=2e-3), unique=True
        )
        probes = point_probes(pk_relation, "pk", 400, hit_rate=0.7)
        _assert_batch_equals_scalar(tree, [k.item() for k in probes.keys])

    def test_partitioned_data(self, tpch_relation):
        tree = BFTree.bulk_load(
            tpch_relation, "commitdate", BFTreeConfig(fpp=0.01), ordered=False
        )
        probes = point_probes(tpch_relation, "commitdate", 200, hit_rate=0.5)
        _assert_batch_equals_scalar(tree, [k.item() for k in probes.keys])

    def test_counting_filter_kind(self, pk_relation):
        tree = BFTree.bulk_load(
            pk_relation, "pk",
            BFTreeConfig(fpp=0.01, filter_kind="counting"), unique=True,
        )
        _assert_batch_equals_scalar(tree, list(range(0, 1000, 7)))

    def test_bptree_search_many_parity(self, dup_relation):
        tree = BPlusTree.bulk_load(dup_relation, "att1")
        probes = point_probes(dup_relation, "att1", 150, hit_rate=0.8)
        _assert_batch_equals_scalar(tree, [k.item() for k in probes.keys])


# ----------------------------------------------------------------------
# Delete-path regressions
# ----------------------------------------------------------------------
class TestDeletePathRegressions:
    def _tree(self, n=4096, fpp=0.01):
        rel = Relation(
            {"pk": np.arange(n, dtype=np.int64)}, tuple_size=256
        )
        return rel, BFTree.bulk_load(
            rel, "pk", BFTreeConfig(fpp=fpp), unique=True
        )

    @pytest.mark.parametrize("dead_side", ["lower", "upper"])
    def test_tombstone_then_split_then_insert(self, dead_side):
        """Splitting a half-tombstoned leaf must not create an
        unroutable empty-side leaf (the min_key=None crash: routing a
        subsequent insert against it raised TypeError, or ValueError
        once the add landed below the surviving leaf's page range)."""
        rel, tree = self._tree()
        leaf = tree.leaves_in_order()[0]
        lo, hi = leaf.min_key, leaf.max_key
        mid = (lo + hi) // 2
        dead = range(lo, mid) if dead_side == "lower" else range(mid, hi + 1)
        for key in dead:                    # tombstone one whole side
            tree.delete(key)
        left, right = tree._split_leaf(leaf)
        assert left.min_key is not None and right.min_key is not None
        # Re-insert a tombstoned key at its original data page: the
        # insert must route to a leaf whose page range covers it.
        victim = lo + 1 if dead_side == "lower" else hi - 1
        tree.insert(victim, rel.page_of(victim))
        target = next(l for l in tree.leaves_in_order()
                      if l.covers_key(victim))
        assert target.covers_pid(rel.page_of(victim))
        assert tree.search(victim).found

    def test_split_point_ignores_tombstones(self):
        """The split separator is the median of the *live* keys."""
        rel, tree = self._tree()
        leaf = tree.leaves_in_order()[0]
        lo, hi = leaf.min_key, leaf.max_key
        mid = (lo + hi) // 2
        for key in range(lo, mid):
            tree.delete(key)
        left, right = tree._split_leaf(leaf)
        # Both sides hold live keys from the surviving (upper) half.
        assert mid <= left.min_key <= left.max_key < right.min_key
        assert right.max_key == hi

    def test_split_with_fewer_than_two_live_keys_raises(self):
        rel, tree = self._tree()
        leaf = tree.leaves_in_order()[0]
        for key in range(leaf.min_key + 1, leaf.max_key + 1):
            tree.delete(key)                # one live key left
        with pytest.raises(ValueError):
            tree._split_leaf(leaf)

    def test_add_page_keys_clears_tombstone(self):
        """Bulk re-insertion must un-tombstone keys, like scalar add."""
        rel, tree = self._tree()
        leaf = tree.leaves_in_order()[0]
        key = leaf.min_key + 3
        leaf.mark_deleted(key)
        assert leaf.matching_page_runs_many([key])[0] == []
        leaf.add_pages(
            np.asarray([key], dtype=np.int64), [rel.page_of(key)]
        )
        assert key not in leaf.deleted_keys
        assert leaf.matching_page_runs_many([key])[0]
        assert tree.search(key).found

    def test_delete_then_reinsert_via_insert(self):
        rel, tree = self._tree()
        assert tree.delete(77)
        assert not tree.search(77).found
        tree.insert(77, rel.page_of(77))
        assert tree.search(77).found


# ----------------------------------------------------------------------
# Fetch accounting (Eq. 13)
# ----------------------------------------------------------------------
class TestFetchRunAccounting:
    def test_disjoint_runs_pay_one_seek_each(self, pk_relation):
        """Every fetched run starts with a random positioning; only
        pages within a run ride sequentially (Device.read_run)."""
        tree = BFTree.bulk_load(
            pk_relation, "pk", BFTreeConfig(fpp=0.2), unique=False
        )
        stack = build_stack("MEM/SSD")
        tree.bind(stack)
        try:
            for key in range(0, 2048, 41):
                before = stack.stats.snapshot()
                tree.search(key)
                io = stack.stats.diff(before)
                leaf = next(l for l in tree.leaves_in_order()
                            if l.covers_key(key))
                runs = leaf.matching_page_runs_many([key])[0]
                # search() fetches the sorted runs until the ordered-data
                # early stop; each *started* run costs one random read.
                assert io.data_random_reads <= len(runs)
                assert io.data_random_reads >= 1
                expected_pages = io.data_random_reads + io.data_seq_reads
                assert expected_pages == io.data_reads
        finally:
            tree.unbind()


# ----------------------------------------------------------------------
# Array run builder and fetch against the per-read reference
# ----------------------------------------------------------------------
def _covering_leaves(tree, key):
    """The target leaf and neighbour leaves whose key range holds ``key``."""
    try:
        leaf_id, _ = tree.inner.route(key)
    except LookupError:
        return []
    leaf = tree.leaves[leaf_id]
    leaves = [leaf, *(tree.leaves[i] for i in tree._neighbour_ids(key, leaf))]
    return [c for c in leaves if c.covers_key(key)]


def _reference_runs(tree, key):
    """Sorted candidate runs of one read (``None``: no leaf covers it),
    built leaf by leaf with ``_build_runs`` from scalar filter tests."""
    per_leaf = [[] if key in c.deleted_keys
                else _build_runs(c, key, _scalar_groups(c, key))
                for c in _covering_leaves(tree, key)]
    if not per_leaf:
        return None
    if len(per_leaf) == 1:
        return per_leaf[0]
    return sorted(run for runs in per_leaf for run in runs)


def _reference_fetch(tree, key, runs):
    """Fetch ``runs`` page by page, tuple by tuple, as Algorithm 1 reads
    them.  Returns ``(result, n_random, n_pages, examined)``."""
    rel = tree.relation
    col = rel.columns[tree.key_column]
    tids, n_random, n_pages, false_pages, examined = [], 0, 0, 0, 0
    stopped = False
    for first, npages in runs:
        if stopped:
            break
        n_random += 1
        run_hits = run_pages = 0
        for pid in range(first, first + npages):
            lo, hi = rel.page_bounds(pid)
            page_hits = 0
            for tid in range(lo, hi):
                examined += 1
                if col[tid] == key:
                    tids.append(tid)
                    page_hits += 1
                elif tree.ordered and col[tid] > key:
                    break
            run_pages += 1
            run_hits += page_hits
            if ((tree.unique and page_hits)
                    or (tree.ordered and col[lo] > key)):
                stopped = True
                break
        n_pages += run_pages
        if not run_hits:
            false_pages += run_pages
    result = SearchResult(found=bool(tids), matches=len(tids),
                          pages_read=n_pages, false_pages=false_pages,
                          tids=tids)
    return result, n_random, n_pages, examined


def _capture_fetch(tree, calls):
    """Record each ``_fetch_runs`` call's runs, results, latencies and
    IOStats and simulated-time delta on ``tree`` (an instance attribute
    shadows the method; the pass's read owners pass through)."""
    method = tree._fetch_runs

    def fetch(keys, offsets, first, npages, ops, *owners):
        stack = tree.stack
        before, t0 = stack.stats.snapshot(), stack.elapsed()
        results, latencies = method(keys, offsets, first, npages, ops,
                                    *owners)
        first, npages = first.tolist(), npages.tolist()
        runs = {op: list(zip(first[a:b], npages[a:b]))
                for op, a, b in zip(ops, offsets, offsets[1:])}
        calls.append((runs, dict(zip(ops, zip(results, latencies))),
                      stack.stats.diff(before), stack.elapsed() - t0))
        return results, latencies

    tree._fetch_runs = fetch


def _assert_runs_match_reference(values, ordered, unique, pages_per_bf,
                                 page_size, fpp, dead, extra):
    """Per read, the CSR runs one flush builds and the array fetch's
    SearchResult, latency and IOStats delta equal the reference: runs
    merged group by group, pages scanned tuple by tuple.  Returns the
    tree."""
    if unique:
        values = list(dict.fromkeys(values))
    if ordered:
        values = sorted(values)
    rel = _relation_from(values)
    tree = BFTree.bulk_load(
        rel, "k",
        BFTreeConfig(fpp=fpp, pages_per_bf=pages_per_bf,
                     page_size=page_size),
        unique=unique, ordered=ordered,
    )
    for key in dead:
        tree.delete(key)
    # Leaf minimums take the spill-back pages on ordered trees.
    probes = ([leaf.min_key for leaf in tree.leaves_in_order()]
              + values[::7] + dead + extra)
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    calls = []
    _capture_fetch(tree, calls)
    try:
        got = tree.search_many(probes)
        device = tree._data_device
    finally:
        tree.unbind()
    expected_runs = [_reference_runs(tree, key) for key in probes]
    fetched = [op for op, runs in enumerate(expected_runs)
               if runs is not None]
    if not fetched:
        assert not calls
        assert got == [SearchResult(found=False)] * len(probes)
        return tree
    [(runs, per_op, io, elapsed)] = calls
    assert sorted(runs) == fetched
    n_random = n_pages = examined = false_reads = 0
    for op, key in enumerate(probes):
        if expected_runs[op] is None:
            assert got[op] == SearchResult(found=False)
            continue
        assert runs[op] == expected_runs[op]
        result, rnd, pages, exam = _reference_fetch(
            tree, key, expected_runs[op])
        assert got[op] == result
        assert per_op[op][0] == result
        assert per_op[op][1] == (
            device.read_cost(rnd, pages - rnd) + exam * CPU_TUPLE_SCAN)
        n_random += rnd
        n_pages += pages
        examined += exam
        false_reads += result.false_pages
    assert io == IOStats(data_random_reads=n_random,
                         data_seq_reads=n_pages - n_random,
                         false_reads=false_reads, tuples_scanned=examined)
    assert math.isclose(
        elapsed,
        device.read_cost(n_random, n_pages - n_random)
        + examined * CPU_TUPLE_SCAN,
        rel_tol=1e-9, abs_tol=1e-15,
    )
    return tree


class TestArrayRunsEqualReference:
    @given(
        values=st.lists(st.integers(min_value=0, max_value=150),
                        min_size=16, max_size=700),
        ordered=st.booleans(),
        unique=st.booleans(),
        pages_per_bf=st.sampled_from([1, 3]),
        page_size=st.sampled_from([128, 4096]),
        fpp=st.sampled_from([0.3, 0.05]),
        dead=st.lists(st.integers(min_value=0, max_value=150), max_size=8),
        extra=st.lists(st.integers(min_value=-5, max_value=160),
                       max_size=20),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property(self, values, ordered, unique, pages_per_bf,
                      page_size, fpp, dead, extra):
        _assert_runs_match_reference(values, ordered, unique, pages_per_bf,
                                     page_size, fpp, dead, extra)

    @pytest.mark.parametrize("pages_per_bf", [1, 3])
    @pytest.mark.parametrize("unique", [False, True])
    @pytest.mark.parametrize("ordered", [True, False])
    @pytest.mark.parametrize("page_size", [128, 4096])
    def test_trees(self, page_size, ordered, unique, pages_per_bf):
        """Index pages of 128 bytes make many leaves: spill-back pages on
        ordered trees, reads tested on several leaves on partitioned
        ones.  4096 makes one leaf, so a flush tests one leaf group.
        Both end on a filter covering fewer than ``pages_per_bf``
        pages when that is more than one."""
        rng = np.random.default_rng(7)
        if unique:
            values = rng.permutation(1502).tolist()
        else:
            values = rng.integers(0, 150, 1502).tolist()
        dead = values[5:400:37]
        tree = _assert_runs_match_reference(
            values, ordered, unique, pages_per_bf, page_size, 0.05, dead,
            [-1, 10**6])
        leaves = tree.leaves_in_order()
        assert (len(leaves) > 1) == (page_size == 128)
        assert any(leaf.deleted_keys for leaf in leaves)
        if pages_per_bf > 1:
            assert any(leaf.pages_covered
                       < leaf.nfilters * leaf.geometry.pages_per_bf
                       for leaf in leaves)
        if page_size == 128 and ordered and not unique:
            assert any(leaf.spill_back_pages for leaf in leaves)
        if page_size == 128 and not ordered:
            assert any(len(_covering_leaves(tree, key)) > 1
                       for key in values[::7])

