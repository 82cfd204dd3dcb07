"""The BF-leaf page matrix: one bit-sliced ``(bits_per_bf, ceil(capacity
/ 8))`` uint8 matrix per leaf whose row ``b`` holds bit ``b`` of every
filter, beside one add count per filter and, on a counting leaf, a
counter page in step with it.

Covers the sanitizer's layout invariants (one add count per filter in
use, no bit set for a filter past ``nfilters``, a counting leaf's bits
equal to its counters above zero) after every structural change that
creates, grows or moves filters, each invariant failing on a leaf
corrupted in exactly that way, plus the page-level kernels against
one-filter oracles and the per-op loop.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.sanitize import StructuralCorruption, check_tree
from repro.core import BFTree, BFTreeConfig
from repro.core.bf_leaf import BFLeaf, BFLeafGeometry, build_page_runs
from repro.core.bloom import (
    BloomFilter,
    page_from_rows,
    page_to_rows,
    row_test_positions,
)
from repro.service import ShardedIndex
from repro.storage import Relation, build_stack


def _pk_tree(n=4096, fpp=1e-3, **cfg):
    rel = Relation({"pk": np.arange(n, dtype=np.int64)}, tuple_size=256)
    return rel, BFTree.bulk_load(rel, "pk", BFTreeConfig(fpp=fpp, **cfg),
                                 unique=True)


def _groups(leaf, key):
    """Filters of ``leaf`` whose membership test matches ``key``."""
    _, groups = BFLeaf._match_matrix([leaf.page], [0],
                                     leaf.hash_batch([key]))
    return groups.tolist()


def _dense(rows, groups, shape):
    """The match matrix of ``_match_matrix``'s nonzero output."""
    matrix = np.zeros(shape, dtype=bool)
    matrix[rows, groups] = True
    return matrix


def _assert_paged(tree):
    """The sanitizer check passes and every leaf has a page with one
    row per filter bit, wide enough for its filters."""
    check_tree(tree)
    for leaf in tree.leaves.values():
        assert leaf.page.dtype == np.uint8
        assert leaf.page.shape[0] == leaf.geometry.bits_per_bf
        assert 8 * leaf.page.shape[1] >= max(leaf.nfilters,
                                             leaf.geometry.max_filters)


# ======================================================================
# the invariant holds after every structural change
# ======================================================================
class TestInvariantHolds:
    def test_bulk_load(self, pk_relation, dup_relation, tpch_relation):
        _assert_paged(BFTree.bulk_load(pk_relation, "pk", unique=True))
        _assert_paged(BFTree.bulk_load(
            dup_relation, "att1", BFTreeConfig(fpp=0.01, pages_per_bf=3)))
        _assert_paged(BFTree.bulk_load(
            tpch_relation, "commitdate", BFTreeConfig(fpp=0.01),
            ordered=False))

    def test_insert_driven_split(self):
        rel, tree = _pk_tree()
        before = tree.n_leaves
        for i in range(4000):
            cur = tree.leaves_in_order()[-1]
            tree.insert(4096 + i,
                        cur.max_pid - (i % min(16, cur.pages_covered)))
            if tree.n_leaves > before:
                break
        assert tree.n_leaves > before
        _assert_paged(tree)
        tree.bind(build_stack("MEM/SSD"))
        assert tree.search(4000).found

    def test_spanning_key_oversized_growth(self):
        """An add past the leaf budget grows the geometry, and the page
        with it: existing rows move to the new page."""
        rel, tree = _pk_tree()
        last = tree.leaves_in_order()[-1]
        budget = last.geometry.max_filters
        old_page = last.page
        probes = [last.min_key, last.max_key - 100, last.max_key]
        before = [_groups(last, k) for k in probes]
        far = last.min_pid + budget + 5
        tree.insert_overflow(last.max_key, far)
        assert last.nfilters == budget + 6 > 8 * old_page.shape[1]
        assert last.page is not old_page
        _assert_paged(tree)
        # Everything indexed before the growth is still found, and the
        # spanning key's new far group too.
        after = [_groups(last, k) for k in probes]
        assert after[:2] == before[:2]
        assert after[2] == before[2] + [last.group_of(far)]

    def test_oversized_growth_through_insert_split(self):
        """A pid far beyond the target leaf's budget splits the leaf and
        then grows the child that must cover it."""
        rel, tree = _pk_tree()
        last = tree.leaves_in_order()[-1]
        far = last.min_pid + 3 * last.geometry.max_filters
        tree.insert(10**6, far)
        grown = tree.leaves_in_order()[-1]
        assert grown.group_of(far) >= tree.geometry.max_filters
        _assert_paged(tree)

    def test_snapshot_restore(self):
        rel, tree = _pk_tree()
        tree.insert_overflow(tree.leaves_in_order()[-1].max_key,
                             tree.leaves_in_order()[-1].min_pid
                             + tree.geometry.max_filters + 2)
        tree.delete(17)
        fresh = BFTree(rel, "pk", tree.config, unique=True)
        fresh.restore_state(tree.snapshot_state())
        _assert_paged(fresh)
        for a, b in zip(tree.leaves_in_order(), fresh.leaves_in_order()):
            assert a.page is not b.page
            n = a.nfilters
            assert np.array_equal(page_to_rows(a.page, n),
                                  page_to_rows(b.page, n))

    def test_service_split_and_merge(self):
        rel = Relation({"pk": np.arange(32768, dtype=np.int64)},
                       tuple_size=256)
        svc = ShardedIndex.build(rel, "pk", n_shards=2, kind="bf",
                                 unique=True, fpp=1e-3)
        victim = max(svc.shards, key=lambda s: s.index.n_leaves)
        left, right = svc.split_shard(victim.shard_id)
        for shard in svc.shards:
            _assert_paged(shard.index)
        merged = svc.merge_shards(left, right)
        for shard in svc.shards:
            _assert_paged(shard.index)
        assert merged in {s.shard_id for s in svc.shards}


# ======================================================================
# the invariant catches broken pages
# ======================================================================
class TestInvariantFires:
    def test_counts_not_one_per_filter(self):
        _, tree = _pk_tree()
        tree.leaves_in_order()[0].counts.append(0)
        with pytest.raises(StructuralCorruption,
                           match="add counts for .* filters"):
            check_tree(tree)

    @pytest.mark.parametrize("matrix", ["page", "page_rows", "counters"])
    def test_page_too_small(self, matrix):
        _, tree = _pk_tree(filter_kind="counting")
        leaf = tree.leaves_in_order()[0]
        if matrix == "page":        # too few filter columns
            leaf.page = leaf.page[:, :(leaf.nfilters - 1) // 8]
        elif matrix == "page_rows":  # too few bit rows
            leaf.page = leaf.page[:-1]
        else:
            leaf.counters = leaf.counters[:leaf.nfilters - 1]
        with pytest.raises(StructuralCorruption,
                           match="of shape .* cannot hold"):
            check_tree(tree)

    def test_counter_in_unused_row(self):
        _, tree = _pk_tree(filter_kind="counting")
        check_tree(tree)
        leaf = next(l for l in tree.leaves_in_order()
                    if l.nfilters < l.counters.shape[0])
        leaf.counters[leaf.nfilters, 3] = 1
        with pytest.raises(StructuralCorruption, match="counter rows"):
            check_tree(tree)

    @pytest.mark.parametrize("corrupt", ["bit", "counter"])
    def test_bits_disagree_with_counters(self, corrupt):
        _, tree = _pk_tree(filter_kind="counting")
        leaf = tree.leaves_in_order()[0]
        zero = int(np.flatnonzero(leaf.counters[1] == 0)[0])
        if corrupt == "bit":      # a set bit with a zero counter
            leaf.page[zero, 0] |= 1 << 1
        else:                     # a nonzero counter with a clear bit
            leaf.counters[1, zero] = 2
        with pytest.raises(StructuralCorruption,
                           match="bit page disagrees with counters"):
            check_tree(tree)

    def test_leaves_with_differing_hash_geometry(self):
        _, tree = _pk_tree()
        leaf = tree.leaves_in_order()[1]
        leaf.geometry = replace(leaf.geometry,
                                hash_count=leaf.geometry.hash_count + 1)
        with pytest.raises(StructuralCorruption,
                           match="disagree on .hash_count, bits_per_bf"):
            check_tree(tree)

    def test_bits_in_unused_row(self):
        """A set bit of a filter past ``nfilters``: in the last byte in
        use, or in a byte past it."""
        for past in (0, 8):
            _, tree = _pk_tree()
            leaf = next(l for l in tree.leaves_in_order()
                        if l.nfilters % 8
                        and l.nfilters + 8 < 8 * l.page.shape[1])
            g = leaf.nfilters + past
            leaf.page[3, g >> 3] |= 1 << (g & 7)
            with pytest.raises(StructuralCorruption, match="hold set bits"):
                check_tree(tree)


# ======================================================================
# page kernels equal their per-filter counterparts
# ======================================================================
def _leaf(max_filters=8, min_pid=0):
    geo = BFLeafGeometry.plan(0.01, 16.0)
    geo = BFLeafGeometry(**{**vars(geo), "max_filters": max_filters})
    return BFLeaf(node_id=3, geometry=geo, min_pid=min_pid)


def _reference_runs(leaf, key, groups):
    """A pair's runs from its matched ``groups``, one group at a time:
    none for a tombstoned key, the spill-back run first for the leaf's
    minimum key, then each group's pages clipped to the coverage,
    adjacent ones merged."""
    if key in leaf.deleted_keys:
        return []
    runs = []
    if leaf.spill_back_pages and key == leaf.min_key:
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


def _split_runs(offsets, first, npages):
    first, npages = first.tolist(), npages.tolist()
    return [list(zip(first[a:b], npages[a:b]))
            for a, b in zip(offsets, offsets[1:])]


class TestPageKernels:
    def test_writes_through_filters_land_in_page(self):
        leaf = _leaf()
        leaf.add(42, 2)
        assert leaf.nfilters == 3
        assert np.array_equal(np.flatnonzero(leaf.page[:, 0]),
                              sorted(set(leaf.key_positions(42))))
        assert set(leaf.page[:, 0].tolist()) == {0, 1 << 2}
        assert not leaf.page[:, 1:].any()
        assert leaf.counts == [0, 0, 1]
        rows = page_to_rows(leaf.page, 3)
        assert row_test_positions(rows[2], leaf.key_positions(42))
        assert not rows[:2].any()

    def test_constructor_filters_are_copied_onto_a_page(self):
        geo = _leaf(max_filters=12).geometry
        bf = BloomFilter(geo.bits_per_bf, geo.hash_count, seed=9)
        bf.add(7)
        rows = np.zeros((3, bf._words.shape[0]), dtype=np.uint64)
        rows[1] = bf._words
        page = page_from_rows(rows, geo.bits_per_bf)
        leaf = BFLeaf(node_id=1, geometry=geo, min_pid=0, filter_seed=9,
                      nfilters=3, counts=[0, 1, 0], page=page)
        assert leaf.page.shape == (geo.bits_per_bf, 2)
        assert leaf.page is not page
        assert _groups(leaf, 7) == [1]

    def test_constructor_rejects_a_layout_it_cannot_page(self):
        geo = _leaf().geometry
        rows = np.zeros((geo.bits_per_bf, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="no page"):
            BFLeaf(node_id=1, geometry=geo, min_pid=0, nfilters=2,
                   counts=[0, 0])
        with pytest.raises(ValueError, match="1 counts for 2 filters"):
            BFLeaf(node_id=1, geometry=geo, min_pid=0, nfilters=2,
                   counts=[0], page=rows)

    def test_match_matrix_equals_per_filter_tests(self):
        leaf = _leaf()
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 10**6, size=200)
        for j, key in enumerate(keys.tolist()):
            leaf.add(key, j % 8)
        # Oracle: one standalone filter per group, fed the same keys.
        filters = [BloomFilter(leaf.geometry.bits_per_bf,
                               leaf.geometry.hash_count, leaf.filter_seed)
                   for _ in range(leaf.nfilters)]
        for j, key in enumerate(keys.tolist()):
            filters[j % 8].add(key)
        probes = np.concatenate([keys[:50], rng.integers(0, 10**6, 50)])
        rows, groups = BFLeaf._match_matrix(
            [leaf.page], np.zeros(100, np.intp), leaf.hash_batch(probes))
        expected = [[f.might_contain(p) for f in filters]
                    for p in probes.tolist()]
        assert groups.max() < leaf.nfilters
        assert _dense(rows, groups, (100, leaf.nfilters)).tolist() \
            == expected

    def test_add_pages_equals_page_by_page(self):
        pages = [np.array([1, 5, 9]), np.array([9, 12]), np.array([20])]
        pids = [0, 1, 3]
        one = _leaf()
        for keys, pid in zip(pages, pids):
            one.add_pages(keys, np.full(len(keys), pid))
        run = _leaf()
        run.add_pages(np.concatenate(pages),
                      np.repeat(pids, [len(p) for p in pages]))
        assert np.array_equal(one.page, run.page)
        assert one.counts == run.counts
        assert (one.nkeys, one.min_key, one.max_key, one.pages_covered) \
            == (run.nkeys, run.min_key, run.max_key, run.pages_covered)

    def test_counting_add_pages_equals_scalar_adds(self):
        """Bulk, scalar and duplicate-chunk adds leave equal bits,
        counters and counts on a counting leaf."""
        geo = BFLeafGeometry.plan(0.01, 16.0, filter_kind="counting")
        keys = np.array([1, 5, 9, 9, 12, 20, 21])
        pids = np.array([0, 0, 0, 1, 1, 3, 3])
        bulk, scalar = (BFLeaf(node_id=4, geometry=geo, min_pid=0)
                        for _ in range(2))
        bulk.add_pages(keys, pids)
        for key, pid in zip(keys.tolist(), pids.tolist()):
            scalar.add(key, pid)
        assert np.array_equal(bulk.page, scalar.page)
        assert np.array_equal(bulk.counters, scalar.counters)
        assert bulk.counts == scalar.counts == [3, 2, 0, 2]
        # Re-inserting present keys: one chunk equals adds in turn.
        chunk = BFLeaf(node_id=4, geometry=geo, min_pid=0)
        chunk.add_pages(keys, pids)
        chunk.add_duplicates(keys[:4].tolist(), pids[:4].tolist(),
                             chunk.hash_batch(keys), [0, 1, 2, 3])
        for key, pid in zip(keys[:4].tolist(), pids[:4].tolist()):
            assert not scalar.add(key, pid)
        assert np.array_equal(chunk.page, scalar.page)
        assert np.array_equal(chunk.counters, scalar.counters)
        assert chunk.counts == scalar.counts

    def test_hash_rows_equal_per_leaf_hashing(self):
        leaves = [_leaf(), BFLeaf(node_id=2**63 + 11,
                                  geometry=_leaf().geometry, min_pid=0)]
        leaves[0].filter_seed = 77
        keys = [5, -3, 2**40, 8, 9]
        which = [0, 1, 0, 0, 1]
        got = BFLeaf.hash_rows(keys, leaves, which)
        for key, t, row in zip(keys, which, got):
            assert np.array_equal(row, leaves[t].hash_batch([key])[0])

    def test_duplicate_flags_equal_scalar_verdicts(self):
        """One call over keys bound for several leaves — one of them
        oversized, on a page with room for more filters than the
        geometry's budget, and one saturated past the trust gate —
        answers each key as its own leaf's scalar test does."""
        leaves = [_leaf(), _leaf(max_filters=2), _leaf()]
        for t, leaf in enumerate(leaves):
            leaf.filter_seed = 100 + t
        # Grow one leaf past its budget, as a spanning key does
        # (BFTree._leaf_add_unchecked).
        leaves[1].geometry = replace(leaves[1].geometry, max_filters=12)
        for key in range(60):
            leaves[0].add(key, key % 4)
            leaves[1].add(key, key % 12)
            leaves[2].add(key, key % 3)
        assert leaves[1].page.shape[1] > leaves[0].page.shape[1]
        leaves[2].page[:, 0] |= 1 << 1      # distrust filter 1
        keys = list(range(40, 100)) * 3
        which = np.repeat(np.arange(3), 60)
        groups = np.array([k % (4, 12, 3)[t] for k, t in zip(keys, which)])
        positions = BFLeaf.hash_rows(keys, leaves, which)
        flags = BFLeaf.duplicate_flags(leaves, which, groups, positions)
        want = [
            leaves[t].duplicate_prehashed(int(g), positions[j].tolist())
            for j, (t, g) in enumerate(zip(which, groups))
        ]
        assert flags.tolist() == want
        assert True in want and False in want
        # Native bools, as annotated: an np.bool_ verdict is neither
        # True nor False to an identity test.
        assert {type(verdict) for verdict in want} == {bool}
        # A batch landing in one leaf reads that leaf's page alone.
        one = BFLeaf.duplicate_flags(leaves, which[60:120], groups[60:120],
                                     positions[60:120])
        assert one.tolist() == want[60:120]

    def test_one_flush_mix_equals_per_filter_tests(self):
        """One :meth:`BFLeaf.match_many` over (key, leaf) pairs on three
        leaves — pages of unequal width, a tombstoned key on two of
        them, a leaf with spill-back pages probed for its minimum key,
        and keys tested on two leaves whose key ranges overlap, as a
        partitioned tree's neighbour rows are — matches each pair as
        one standalone filter per group does, and its runs are each
        pair's runs built group by group."""
        leaves = [_leaf(min_pid=0), _leaf(max_filters=2, min_pid=50),
                  _leaf(min_pid=80)]
        # Leaf 1 grows past its budget, as a spanning key makes it.
        leaves[1].geometry = replace(leaves[1].geometry, max_filters=20)
        adds = [[(key, key % 8) for key in range(60)],
                [(key, 50 + key % 20) for key in range(30, 90)],
                [(key, 80 + key % 6) for key in range(90, 131)]]
        filters = []
        for t, (leaf, pairs) in enumerate(zip(leaves, adds)):
            leaf.filter_seed = 300 + t
            geo = leaf.geometry
            oracle = {}
            for key, pid in pairs:
                leaf.add(key, pid)
                oracle.setdefault(leaf.group_of(pid), BloomFilter(
                    geo.bits_per_bf, geo.hash_count, leaf.filter_seed,
                )).add(key)
            filters.append([oracle[g] for g in range(leaf.nfilters)])
        leaves[2].spill_back_pages = 3
        leaves[0].mark_deleted(5)
        leaves[1].mark_deleted(40)
        leaves[2].mark_deleted(100)
        assert len({leaf.page.shape[1] for leaf in leaves}) == 2
        # Keys 30..59 sit in leaves 0 and 1: both test them.
        pairs = [(key, t) for key in range(0, 140, 2)
                 for t in range(3) if (key + t) % 4]
        pairs += [(5, 0), (40, 1), (40, 0), (90, 2), (100, 2)]
        keys = [key for key, _ in pairs]
        which = np.array([t for _, t in pairs])
        positions = BFLeaf.hash_rows(keys, leaves, which)
        matrix = _dense(*BFLeaf._match_matrix(
            [leaf.page for leaf in leaves], which, positions),
            (len(pairs), 8 * max(leaf.page.shape[1] for leaf in leaves)))
        expected_runs = []
        for j, (key, t) in enumerate(pairs):
            groups = [g for g, f in enumerate(filters[t])
                      if f.might_contain(key)]
            assert np.flatnonzero(matrix[j]).tolist() == groups
            expected_runs.append(_reference_runs(leaves[t], key, groups))
        assert any(run for run in expected_runs)
        for pair in (5, 0), (40, 1), (100, 2):
            assert expected_runs[pairs.index(pair)] == []
        assert expected_runs[pairs.index((40, 0))]
        # The spill-back run, merged with the minimum's own first page.
        assert expected_runs[pairs.index((90, 2))][0] == (77, 4)
        test = BFLeaf.match_many(keys, leaves, which, positions)
        assert _split_runs(*build_page_runs([test])) == expected_runs
        # The same pairs split over two flushes build the same runs.
        half = len(pairs) // 2
        tests = [BFLeaf.match_many(keys[a:b], leaves, which[a:b],
                                   positions[a:b])
                 for a, b in ((0, half), (half, len(pairs)))]
        assert _split_runs(*build_page_runs(tests)) == expected_runs

    @pytest.mark.parametrize("shape", ["partitioned", "spill_back"])
    def test_one_flush_equals_per_op_loop(self, shape, tpch_relation,
                                          dup_relation, monkeypatch):
        """A read batch over a tree whose leaves mix page widths and
        tombstones — with neighbour rows on partitioned data, or
        spill-back minimum keys on duplicated sorted data — is tested
        in one gather and reads, charges and times every key as the
        per-op loop does."""
        if shape == "partitioned":
            rel, column = tpch_relation, "commitdate"
            tree = BFTree.bulk_load(rel, column, BFTreeConfig(fpp=0.01),
                                    ordered=False)
        else:
            rel, column = dup_relation, "att1"
            tree = BFTree.bulk_load(rel, column,
                                    BFTreeConfig(fpp=0.01, page_size=512))
        chain = tree.leaves_in_order()
        values = sorted(set(np.asarray(rel.columns[column]).tolist()))
        key = values[len(values) // 2]
        wide = tree.leaves[tree.inner.route(key)[0]]
        tree.insert_overflow(key, wide.min_pid + 8 * wide.page.shape[1] + 3)
        assert len({leaf.page.shape[1] for leaf in chain}) == 2
        for key in values[5::40]:
            tree.delete(key)
        probes = values[::7] + [values[-1] + 1]
        if shape == "spill_back":
            spilled = [leaf.min_key for leaf in chain
                       if leaf.spill_back_pages]
            assert spilled
            probes += spilled
        else:
            assert any(tree._neighbour_ids(key, tree.leaves[
                tree.inner.route(key)[0]]) for key in probes)
        assert any(key in leaf.deleted_keys for key in probes
                   for leaf in chain)
        scalar_stack = build_stack("MEM/SSD")
        tree.bind(scalar_stack)
        scalar, scalar_latencies = [], []
        for key in probes:
            start = scalar_stack.elapsed()
            scalar.append(tree.search(key))
            scalar_latencies.append(scalar_stack.elapsed() - start)
        gathers = []
        real_match = BFLeaf._match_matrix

        def counted_match(pages, which, positions):
            gathers.append(len(positions))
            return real_match(pages, which, positions)

        monkeypatch.setattr(BFLeaf, "_match_matrix", counted_match)
        batch_stack = build_stack("MEM/SSD")
        tree.bind(batch_stack)
        latencies = []
        batch = tree.search_many(probes, latency_sink=latencies)
        monkeypatch.undo()
        assert len(gathers) == 1 and gathers[0] >= len(probes) - 1
        assert batch == scalar
        assert batch_stack.stats.snapshot() == scalar_stack.stats.snapshot()
        assert latencies == pytest.approx(scalar_latencies, rel=1e-9)

    def test_boundary_enumeration_equals_per_value_tests(self):
        """A 100k-value boundary enumeration, gathered in more than one
        bounded chunk, returns each value's runs as a per-value test of
        the row-form filters does."""
        geo = BFLeafGeometry(fpp=0.01, bits_per_bf=130, pages_per_bf=2,
                             max_filters=300, hash_count=20, page_size=4096)
        leaf = BFLeaf(node_id=9, geometry=geo, min_pid=0)
        keys = np.arange(0, 600_000, 400, dtype=np.int64)
        leaf.add_pages(keys, keys // 1000)
        values = np.arange(200_000, 300_001)
        width = leaf.page.shape[1]
        assert (1 << 26) // (width * geo.hash_count) < len(values)
        got = leaf.matching_page_runs_many(values)
        bits = np.unpackbits(page_to_rows(leaf.page, leaf.nfilters)
                             .view(np.uint8), axis=1, bitorder="little")
        positions = leaf.hash_batch(values)
        want = []
        for start in range(0, len(values), 2000):
            chunk = positions[start:start + 2000]
            match = bits[:, chunk].all(axis=2)          # (S, chunk)
            for j in range(match.shape[1]):
                groups = np.flatnonzero(match[:, j]).tolist()
                want.append(_reference_runs(leaf, None, groups))
        assert got == want
        assert sum(map(bool, got)) >= 250               # every key found


# ======================================================================
# non-integer keys through the fused batch probe
# ======================================================================
@pytest.mark.parametrize("encode", [str, str.encode])
def test_string_keys_batch_probe_equals_scalar(encode):
    """A string-keyed tree bulk-loads through the per-leaf hash pass and
    its fused ``search_many`` canonicalizes keys exactly like ``search``
    (same results, same I/O)."""
    names = sorted(encode(f"user{i:05d}") for i in range(0, 6000, 2))
    rel = Relation({"name": np.array(names)}, tuple_size=256)
    tree = BFTree.bulk_load(rel, "name", BFTreeConfig(fpp=0.01),
                            unique=True)
    check_tree(tree)
    probes = [encode(f"user{i:05d}") for i in range(0, 6000, 37)]
    stack_a, stack_b = build_stack("MEM/SSD"), build_stack("MEM/SSD")
    tree.bind(stack_a)
    scalar = [tree.search(k) for k in probes]
    tree.bind(stack_b)
    batch = tree.search_many(probes)
    assert batch == scalar
    assert stack_a.stats.snapshot() == stack_b.stats.snapshot()
    assert sum(r.found for r in batch) == sum(
        int(p[4:]) % 2 == 0 for p in probes
    )
