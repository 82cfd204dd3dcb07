"""BF-leaf: the Bloom-filter leaf node of a BF-Tree (paper §4.1).

A BF-leaf corresponds to a contiguous *page range* of the data file and a
*key range*, and holds ``S`` Bloom filters.  Filter ``i`` answers "does key
``k`` appear in page group ``i``" for consecutive groups of
``pages_per_bf`` data pages starting at ``min_pid``.  The leaf also keeps
the number of indexed keys (to police the false-positive guarantee), the
key range, and a next-leaf pointer for range scans.

Sizing follows the split property of the paper's §3: the leaf has a fixed
bit budget (one index page minus a header), carved into equal filters of
``bits_per_bf`` bits.  As long as the ratio of total bits to total indexed
keys stays at ``-ln(fpp) / ln^2(2)`` the leaf-wide false-positive
probability is the configured ``fpp`` regardless of how many filters the
budget is split into.

Layout: like the paper's index page, every leaf keeps its filters in
one matrix, :attr:`BFLeaf.page`, beside a ``counts`` vector (adds per
filter) and one hash seed, :attr:`BFLeaf.filter_seed`, fixed when the
leaf is made.  The page is *bit-sliced* (Faloutsos & Christodoulakis'
signature files, BitFunnel): a ``(bits_per_bf, ceil(capacity / 8))``
uint8 matrix whose row ``b`` holds bit ``b`` of every filter, filter
``g`` being bit ``g & 7`` of byte ``g >> 3``.  Filters ``[0, nfilters)``
are in use; the bits of the rest stay zero and never match.  A key's
test against all S filters is the AND of the k rows its bit positions
name, S/8 bytes each, so the tests of many keys on many leaves are one
row gather (:meth:`BFLeaf._match_matrix`).  Snapshots keep the row form,
one filter per row (:func:`~repro.core.bloom.page_to_rows`).  Every
filter of a leaf shares nbits/k and the seed, so a key is hashed once
per leaf; a tree hashes all (key, leaf) rows of a batch in a single call
(:meth:`BFLeaf.hash_rows`) and bulk loading hashes each leaf's pages in
one call (:meth:`BFLeaf.add_pages`).  A counting leaf (§7; Fan et al.'s
counting filters) also keeps an ``(capacity, bits_per_bf)`` uint8
counter page, :attr:`BFLeaf.counters`, in step with its bit page: a bit
is set iff its counter is above zero.  Probes and duplicate tests read
the bit page alone, so they run one code path for both kinds; only adds
and :meth:`BFLeaf.remove_key` touch the counters.

Update support (paper §7): the leaf keeps a *deleted-key list* so deletes
do not degrade the fpp, and tracks ``extra_inserts`` beyond nominal
capacity so the effective fpp after overflowing inserts follows
Equation 14.

Probing is batch-only and array-at-a-time: :meth:`BFLeaf.match_many`
runs Algorithm 1's all-filter test for a batch of (key, leaf) pairs,
over any number of leaves, in one gather, and keeps the match matrix's
``nonzero`` output with each pair's page geometry;
:func:`build_page_runs` turns any number of such tests into CSR page
runs (per-read offsets into ``(first_pid, npages)`` arrays) in one
NumPy pass.  The tree's read engine tests every queued read of a flush
at once and builds every read's runs once per chunk;
:meth:`BFLeaf.match_keys` is a batch of one leaf, and
:meth:`BFLeaf.matching_page_runs_many` the same builder split into one
run list per key.  Writes come as scalar :meth:`BFLeaf.add` and the prehashed
:meth:`BFLeaf.add_prehashed` that ``BFTree.insert_many`` drives; both
leave bit-identical state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from repro.core.bloom import (
    bits_for_capacity,
    counter_page_add,
    fpp_after_inserts,
    optimal_hash_count,
    page_width,
)
from repro.core.hashing import (
    MASK64,
    bloom_positions,
    bloom_positions_batch,
    key_to_int,
    keys_to_int_array,
)

LEAF_HEADER_BYTES = 48
"""min_key, max_key, min_pid, S, #keys, next pointer, geometry fields."""

DUPLICATE_TRUST_MAX_FPP = 0.5
"""Ceiling on a group filter's effective false-positive rate above which
its membership test is no longer trusted to classify an insert as a
re-insert.  Without the ceiling a saturated filter (every probe answers
"present") would swallow all novel keys as duplicates, freezing nkeys
and permanently preventing the capacity split that would rebuild it;
past the ceiling every insert counts as new, which errs toward exactly
that split."""


@dataclass
class BFLeafGeometry:
    """Static sizing shared by all leaves of one BF-Tree.

    ``filter_kind`` selects the membership structure: ``"plain"`` (the
    paper's Bloom filters + deleted-key list) or ``"counting"`` (§7's
    delete-supporting variant, 4-bit counters, 4x the space per filter —
    the page budget then fits a quarter as many filters).
    """

    fpp: float
    bits_per_bf: int
    pages_per_bf: int
    max_filters: int          # S_max: filters fitting the page budget
    hash_count: int
    page_size: int
    filter_kind: str = "plain"
    counter_bits: int = 4

    @property
    def max_pages(self) -> int:
        """Data pages one leaf can cover."""
        return self.max_filters * self.pages_per_bf

    @property
    def key_capacity(self) -> int:
        """Distinct keys one leaf indexes at the nominal fpp (Eq. 5)."""
        bits_per_key = bits_for_capacity(1, self.fpp)
        return max(1, int(self.max_filters * self.bits_per_bf / bits_per_key))

    @classmethod
    def plan(
        cls,
        fpp: float,
        expected_keys_per_group: float,
        pages_per_bf: int = 1,
        hash_count: int | None = None,
        page_size: int = 4096,
        filter_kind: str = "plain",
        counter_bits: int = 4,
    ) -> "BFLeafGeometry":
        """Carve one index page into per-group filters for the target fpp.

        ``expected_keys_per_group`` is the anticipated number of distinct
        keys falling into one group of ``pages_per_bf`` data pages; for a
        clustered attribute it is ``pages_per_bf * tuples_per_page /
        avg_cardinality`` (at least 1).

        ``hash_count=None`` picks the optimal k for the resulting
        bits-per-key ratio, which makes the realized false-positive rate
        track the nominal ``fpp`` Equation 1 promises.  The paper's
        prototype fixes k=3 ("typically enough to have hashing close to
        ideal"); pass ``hash_count=3`` to mirror that — at very small fpp
        the realized rate then saturates around 1e-4.
        """
        if pages_per_bf < 1:
            raise ValueError("pages_per_bf must be >= 1")
        if filter_kind not in ("plain", "counting"):
            raise ValueError(
                f"filter_kind must be 'plain' or 'counting', got {filter_kind!r}"
            )
        if filter_kind == "counting" and not 2 <= counter_bits <= 8:
            raise ValueError(
                f"counter_bits must be in [2, 8] (uint8 counters), "
                f"got {counter_bits}"
            )
        budget_bits = (page_size - LEAF_HEADER_BYTES) * 8
        per_group = max(1.0, expected_keys_per_group)
        bits_per_bf = max(4, round(bits_for_capacity(per_group, fpp)))
        slot_bits = bits_per_bf * (counter_bits if filter_kind == "counting" else 1)
        max_filters = max(1, budget_bits // slot_bits)
        if hash_count is None:
            hash_count = min(32, optimal_hash_count(bits_per_bf, per_group))
        return cls(
            fpp=fpp,
            bits_per_bf=bits_per_bf,
            pages_per_bf=pages_per_bf,
            max_filters=max_filters,
            hash_count=hash_count,
            page_size=page_size,
            filter_kind=filter_kind,
            counter_bits=counter_bits,
        )


class LeafMatches(NamedTuple):
    """The filter tests of a batch of (key, leaf) pairs
    (:meth:`BFLeaf.match_many`), the input of :func:`build_page_runs`."""

    #: Pairs tested.
    nkeys: int
    #: ``np.nonzero`` of the match matrix minus tombstoned pairs: pair
    #: row and matched filter, rows ascending, each row's groups
    #: ascending.
    rows: np.ndarray
    groups: np.ndarray
    #: Per pair, its leaf's page geometry when tested: first page and
    #: end of page coverage (exclusive).
    min_pid: np.ndarray
    end: np.ndarray
    #: Pages per filter, shared by the leaves tested.
    pages_per_bf: int
    #: ``(pair row, first_pid, npages)`` of the spill-back run of each
    #: pair whose key is its leaf's minimum, fetched before that pair's
    #: groups (empty when no leaf tested has spill-back pages).
    spill: list[tuple[int, int, int]]


def build_page_runs(tests: list[LeafMatches],
                    read_ids: list[int] | None = None
                    ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The ``(first_pid, npages)`` runs of queued filter tests, CSR style.

    The tested keys are numbered in order (row ``r`` of ``tests[e]`` is
    test-read ``r`` plus the keys of the tests before it).  One NumPy
    pass over all tests maps each matched filter to its page range,
    clipped to the leaf's coverage, puts a spill-back run before the
    groups of a leaf's minimum key and merges a read's adjacent ranges.
    Returns ``(offsets, first, npages)``: read ``t``'s runs, ascending,
    are ``first[offsets[t]:offsets[t + 1]]`` and the same slice of
    ``npages``.

    ``read_ids`` regroups the runs when one read was tested on several
    leaves: test-read ``t`` belongs to read ``read_ids[t]`` (reads are
    numbered from 0 up, each tested at least once), whose runs from all
    its tests come sorted by ``(first, npages)`` and are never merged
    across tests.
    """
    if len(tests) == 1:
        test = tests[0]
        read = test.rows
        g = test.pages_per_bf
        first = test.groups * g
        first += test.min_pid[read]
        npages = np.minimum(test.end[read] - first, g)
        ntested = test.nkeys
        bases = [0]
    else:
        lens = [len(test.rows) for test in tests]
        bases = list(accumulate([test.nkeys for test in tests], initial=0))
        ntested = bases.pop()
        read = (np.concatenate([test.rows for test in tests])
                + np.array(bases).repeat(lens))
        g = np.array([test.pages_per_bf for test in tests]).repeat(lens)
        first = np.concatenate([test.groups for test in tests]) * g
        first += np.concatenate([test.min_pid for test in tests])[read]
        npages = np.minimum(
            np.concatenate([test.end for test in tests])[read] - first, g)
    if any(test.spill for test in tests):
        read, first, npages = _insert_spill_runs(tests, bases, read, first,
                                                 npages)
    # A pair extends the previous pair's run when it continues that
    # pair's pages for the same test-read.
    extends = first[1:] == (first + npages)[:-1]
    extends &= read[1:] == read[:-1]
    if len(extends.nonzero()[0]):
        cut = np.concatenate(([0], (~extends).nonzero()[0] + 1))
        read, first = read[cut], first[cut]
        npages = np.add.reduceat(npages, cut)
    if read_ids is not None:
        read = np.asarray(read_ids)[read]
        order = np.lexsort((npages, first, read))
        read, first, npages = read[order], first[order], npages[order]
        ntested = max(read_ids) + 1
    counts = np.bincount(read, minlength=ntested).tolist()
    return list(accumulate(counts, initial=0)), first, npages


def _insert_spill_runs(tests, bases, read, first, npages):
    """Insert each spill row's spill-back run before that row's pairs."""
    at, reads, firsts, sizes = [], [], [], []
    offset = 0
    for test, base in zip(tests, bases):
        for row, spill_first, spill_pages in test.spill:
            at.append(offset + int(test.rows.searchsorted(row)))
            reads.append(base + row)
            firsts.append(spill_first)
            sizes.append(spill_pages)
        offset += len(test.rows)
    return (np.insert(read, at, reads), np.insert(first, at, firsts),
            np.insert(npages, at, sizes))


@dataclass
class BFLeaf:
    """One Bloom-filter leaf (see module docstring)."""

    node_id: int
    geometry: BFLeafGeometry
    min_pid: int
    min_key: object = None
    max_key: object = None
    nkeys: int = 0                      # indexed (key, group) insertions
    next_leaf_id: int | None = None
    prev_leaf_id: int | None = None
    pages_covered: int = 0              # may be < nfilters * pages_per_bf
    deleted_keys: set = field(default_factory=set)
    extra_inserts: int = 0              # inserts beyond nominal capacity
    #: Pages *before* ``min_pid`` that also contain ``min_key``.  When a
    #: key's duplicates straddle a leaf boundary, Algorithm 2 lets sibling
    #: page ranges overlap; we record the overlap here so a probe for
    #: ``min_key`` also fetches the preceding pages.
    spill_back_pages: int = 0
    #: Hash seed shared by every filter of this leaf, fixed when the leaf
    #: is made: the node id by default (bulk load), a *structural* seed
    #: derived from the covered pages for a split's children.  It stays
    #: put when the leaf changes owner (sharding reallocates node ids),
    #: so filter bit patterns — and therefore false positives — do not
    #: depend on the allocation order of whichever tree holds the leaf.
    filter_seed: int | None = None
    #: Filters in use: rows ``[0, nfilters)`` of the pages.
    nfilters: int = 0
    #: Adds (with multiplicity) per filter, ``nfilters`` entries.
    counts: list[int] = field(default_factory=list)
    #: The index page, bit-sliced: a ``(bits_per_bf, ceil(capacity /
    #: 8))`` uint8 matrix whose row ``b`` holds bit ``b`` of every
    #: filter; filter ``g`` is bit ``g & 7`` of byte ``g >> 3``.  A page
    #: passed to the constructor is copied onto a fresh one.
    page: np.ndarray = field(default=None, repr=False, compare=False)
    #: Counting leaves only: the ``(capacity, bits_per_bf)`` uint8
    #: counter page, kept in step with ``page``; None for plain leaves.
    counters: np.ndarray | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        if self.filter_seed is None:
            self.filter_seed = self.node_id
        if len(self.counts) != self.nfilters:
            raise ValueError(
                f"BFLeaf: {len(self.counts)} counts for "
                f"{self.nfilters} filters"
            )
        if self.nfilters and self.page is None:
            raise ValueError(f"BFLeaf: {self.nfilters} filters but no page")
        self._repage(self.nfilters)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def max_pid(self) -> int:
        """Last data page covered (inclusive)."""
        return self.min_pid + max(self.pages_covered, 1) - 1

    @property
    def key_capacity(self) -> int:
        return self.geometry.key_capacity

    def covers_key(self, key) -> bool:
        if self.min_key is None:
            return False
        return self.min_key <= key <= self.max_key

    def covers_pid(self, pid: int) -> bool:
        return self.min_pid <= pid < self.min_pid + self.pages_covered

    def group_of(self, pid: int) -> int:
        """Filter index covering data page ``pid``."""
        if pid < self.min_pid:
            raise ValueError(f"page {pid} below leaf range start {self.min_pid}")
        return (pid - self.min_pid) // self.geometry.pages_per_bf

    def group_page_range(self, group: int) -> tuple[int, int]:
        """(first_pid, npages) of filter ``group``, clipped to coverage."""
        g = self.geometry.pages_per_bf
        first = self.min_pid + group * g
        npages = min(g, self.min_pid + self.pages_covered - first)
        return first, max(npages, 0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def key_positions(self, key) -> list[int]:
        """The k filter bit positions ``key`` hashes to in this leaf."""
        geo = self.geometry
        return bloom_positions(
            key_to_int(key), geo.hash_count, geo.bits_per_bf,
            self.filter_seed,
        )

    def hash_batch(self, keys) -> np.ndarray:
        """``(len(keys), k)`` bit positions, hashed once for the batch.

        All filters of one leaf share nbits/k/seed, so these rows are
        valid against every filter of the leaf, on the probe and the
        write path alike.
        """
        geo = self.geometry
        return bloom_positions_batch(
            keys_to_int_array(keys), geo.hash_count, geo.bits_per_bf,
            self.filter_seed,
        )

    def add(self, key, pid: int) -> bool:
        """Index ``key`` as present on data page ``pid``.

        Grows the filter list to cover ``pid`` if needed; raises if the
        page budget cannot reach that far (caller must split first).

        Returns True when the insert grew ``nkeys``.  A re-insert of an
        already-present ``(key, page group)`` pair — detected through the
        group filter's own membership test, the only memory the leaf has —
        leaves ``nkeys`` unchanged: the filter bits don't change, so
        neither does the capacity the leaf has actually consumed.  (The
        test can false-positive at the filter's fpp, under-counting a
        genuinely new key; that error is the same order as the accuracy
        the leaf already promises.  Once a filter degrades past
        :data:`DUPLICATE_TRUST_MAX_FPP` the test is ignored and every
        insert counts as new, so a saturated filter can never freeze
        ``nkeys`` and suppress the split that would rebuild it.)  A
        counting leaf still counts the re-insert in its counters, so
        one :meth:`remove_key` later leaves the key present.
        """
        return self.add_prehashed(key, pid, self.key_positions(key))

    def _holds(self, group: int, positions) -> bool:
        """Does existing filter ``group`` report the key present, and is
        it still reliable enough to say so (effective fpp, its fill
        fraction to the k-th power, at most
        :data:`DUPLICATE_TRUST_MAX_FPP`)?"""
        column = self.page[:, group >> 3]
        mask = 1 << (group & 7)
        for pos in positions:
            if not column[pos] & mask:
                return False
        geo = self.geometry
        # A native count keeps the verdict a Python bool: a NumPy
        # comparison returns np.bool_, which ``is False`` never matches.
        ones = int(np.count_nonzero(column & mask))
        return (ones / geo.bits_per_bf) ** geo.hash_count \
            <= DUPLICATE_TRUST_MAX_FPP

    def duplicate_prehashed(self, pid: int, positions) -> bool:
        """Would adding a key with these positions on ``pid`` be a re-insert?

        True when the group filter covering ``pid`` already reports the
        key present (bit level) *and* the filter is still reliable
        enough to say so (its effective fpp is below
        :data:`DUPLICATE_TRUST_MAX_FPP`) — such an add cannot grow
        ``nkeys``.
        """
        group = self.group_of(pid)
        return group < self.nfilters and self._holds(group, positions)

    @staticmethod
    def duplicate_flags(leaves, which, groups: np.ndarray,
                        positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`duplicate_prehashed` over many leaves.

        Key ``j`` has bit positions ``positions[j]`` and lands in existing
        filter ``groups[j]`` (``< nfilters``) of ``leaves[which[j]]``.
        The byte columns in use of every leaf a key lands in are stacked
        side by side into one page, so a single gather of each key's k
        bytes answers membership and a single gather of each key's
        column, with its bit counted, answers the trust gate.  The
        leaves must share their hash geometry, as :meth:`hash_rows`
        requires.
        """
        which = np.asarray(which)
        used = dict.fromkeys(which.tolist())
        column = groups >> 3
        if len(used) == 1:
            page = leaves[which[0]].page
        else:
            offset = np.zeros(len(leaves), dtype=np.int64)
            pages = []
            at = 0
            for t in used:
                leaf = leaves[t]
                offset[t] = at
                width = page_width(leaf.nfilters)
                at += width
                pages.append(leaf.page[:, :width])
            page = np.concatenate(pages, axis=1)
            column = column + offset[which]
        mask = (1 << (groups & 7)).astype(np.uint8)
        member = np.bitwise_and.reduce(page[positions, column[:, None]],
                                       axis=1) & mask
        geo = leaves[which[0]].geometry
        fill = np.count_nonzero(page[:, column] & mask, axis=0) \
            / geo.bits_per_bf
        trust = fill ** geo.hash_count <= DUPLICATE_TRUST_MAX_FPP
        return (member != 0) & trust

    def add_prehashed(self, key, pid: int, positions,
                      duplicate: bool | None = None) -> bool:
        """:meth:`add` with the key's bit positions already computed.

        ``duplicate`` short-circuits the membership re-test when the
        caller already knows the answer (the batch write path tests whole
        key groups vectorized; set bits are never cleared by adds, so a
        positive test stays valid for the rest of the batch).  Returns
        True when ``nkeys`` grew.
        """
        group = self.group_of(pid)
        if group >= self.geometry.max_filters:
            raise LeafOverflow(
                f"page {pid} needs filter {group} but leaf holds at most "
                f"{self.geometry.max_filters}"
            )
        self._grow_to(group)
        if duplicate is None:
            duplicate = self._holds(group, positions)
        if not duplicate:  # a duplicate's bits are all set already
            self.page[positions, group >> 3] |= np.uint8(1 << (group & 7))
        self.counts[group] += 1
        self._bump_counters([group], [positions])
        self.pages_covered = max(self.pages_covered, pid - self.min_pid + 1)
        if not duplicate:
            self.nkeys += 1
            if self.nkeys > self.key_capacity:
                self.extra_inserts = self.nkeys - self.key_capacity
        if self.min_key is None or key < self.min_key:
            self.min_key = key
        if self.max_key is None or key > self.max_key:
            self.max_key = key
        self.deleted_keys.discard(key)
        return not duplicate

    def add_duplicates(self, keys, pids, rows: np.ndarray, which) -> None:
        """Re-insert keys whose filters already hold them, in one pass.

        Key ``j`` has bit positions ``rows[which[j]]`` and lives on page
        ``pids[j]`` of an existing filter that reports it present (only a
        counting leaf reads the positions); the result equals
        :meth:`add_prehashed` with ``duplicate=True`` for each key, in
        any order.  No bit changes and ``nkeys`` stays; the filters'
        add counts, a counting leaf's counters (one saturating add), the
        key range, page coverage and tombstones are updated in bulk.
        """
        ppb, min_pid = self.geometry.pages_per_bf, self.min_pid
        groups = [(pid - min_pid) // ppb for pid in pids]
        counts = self.counts
        for group in groups:
            counts[group] += 1
        self._bump_counters(groups, rows, which)
        self.pages_covered = max(self.pages_covered,
                                 max(pids) - min_pid + 1)
        lo, hi = min(keys), max(keys)
        if self.min_key is None or lo < self.min_key:
            self.min_key = lo
        if self.max_key is None or hi > self.max_key:
            self.max_key = hi
        if self.deleted_keys:
            self.deleted_keys.difference_update(keys)

    def add_pages(self, keys, pids) -> None:
        """Vectorized :meth:`add` of a run of data pages (bulk load).

        ``keys`` concatenates the sorted distinct keys of each page, and
        ``pids`` holds each key's page id, non-decreasing.  The resulting
        filter state equals :meth:`add` applied key by key, but the leaf
        hashes the whole run in one call, scatters every bit into a
        boolean slice of the run's filters and ORs it into its page with
        one ``packbits``, and every key counts toward ``nkeys``.  Raises
        :class:`LeafOverflow` before changing anything when the last page
        lies past the leaf's filter budget.
        """
        if len(keys) == 0:
            return
        pids = np.asarray(pids, dtype=np.int64)
        last = self.group_of(int(pids[-1]))
        if last >= self.geometry.max_filters:
            raise LeafOverflow(
                f"page {int(pids[-1])} needs filter {last} but leaf holds "
                f"at most {self.geometry.max_filters}"
            )
        first = self.group_of(int(pids[0]))
        self._grow_to(last)
        groups = (pids - self.min_pid) // self.geometry.pages_per_bf
        positions = self.hash_batch(keys)
        # The run's filters fill byte columns [lo, hi) of the page.
        lo, hi = first >> 3, (last >> 3) + 1
        bits = np.zeros((self.geometry.bits_per_bf, 8 * (hi - lo)),
                        dtype=bool)
        bits[positions.ravel(),
             (groups - 8 * lo).repeat(positions.shape[1])] = True
        self.page[:, lo:hi] |= np.packbits(bits, axis=1, bitorder="little")
        for group, n in enumerate(np.bincount(groups - first).tolist(),
                                  start=first):
            self.counts[group] += n
        self._bump_counters(groups, positions)
        self.pages_covered = max(self.pages_covered,
                                 int(pids[-1]) - self.min_pid + 1)
        self.nkeys += len(keys)
        if self.nkeys > self.key_capacity:
            # Same reconciliation rule as add_prehashed: overflow is
            # always nkeys - key_capacity, however the leaf got there.
            self.extra_inserts = self.nkeys - self.key_capacity
        if self.deleted_keys:
            # Re-inserted keys stop being tombstoned, same as :meth:`add`.
            self.deleted_keys.difference_update(keys.tolist())
        # Each page's keys are sorted: its first and last are its range.
        cuts = np.flatnonzero(pids[1:] != pids[:-1]) + 1
        lo_key = min(keys[np.r_[0, cuts]].tolist())
        hi_key = max(keys[np.r_[cuts - 1, len(keys) - 1]].tolist())
        if self.min_key is None or lo_key < self.min_key:
            self.min_key = lo_key
        if self.max_key is None or hi_key > self.max_key:
            self.max_key = hi_key

    def _bump_counters(self, groups, rows, which=slice(None)) -> None:
        """On a counting leaf, add key ``j`` (bit positions
        ``rows[which][j]``) to the counters of filter ``groups[j]``,
        saturating."""
        if self.counters is not None:
            counter_page_add(self.counters, groups,
                             np.asarray(rows)[which], self._counter_max)

    @property
    def _counter_max(self) -> int:
        return (1 << self.geometry.counter_bits) - 1

    def _grow_to(self, group: int) -> None:
        """Bring empty filters into use until filter ``group`` exists,
        moving to a page twice the size when an oversized leaf outgrows
        its own."""
        if group < self.nfilters:
            return
        capacity = 8 * self.page.shape[1]
        if group >= capacity:
            self._repage(max(group + 1, 2 * capacity))
        self.counts.extend([0] * (group + 1 - self.nfilters))
        self.nfilters = group + 1

    def _repage(self, need: int) -> None:
        """Copy the filters in use onto zeroed pages with room for
        ``need`` filters, or the geometry's budget if that is larger."""
        geo = self.geometry
        n = self.nfilters
        capacity = max(need, geo.max_filters)
        page = np.zeros((geo.bits_per_bf, page_width(capacity)),
                        dtype=np.uint8)
        if n:
            used = page_width(n)
            page[:, :used] = self.page[:, :used]
        self.page = page
        if geo.filter_kind == "counting":
            counters = np.zeros((capacity, geo.bits_per_bf), dtype=np.uint8)
            if self.counters is not None:
                counters[:n] = self.counters[:n]
            self.counters = counters

    def mark_deleted(self, key) -> None:
        """Record ``key`` in the deleted list (fpp-preserving delete, §7)."""
        self.deleted_keys.add(key)

    def remove_key(self, key, pid: int) -> bool:
        """In-place delete via counter decrement (counting filters only).

        The caller must supply the page the tuple lived on — decrementing
        a filter the key was never added to would corrupt other keys'
        counters.
        """
        if self.counters is None:
            raise ValueError(
                "remove_key requires filter_kind='counting'; plain filters "
                "delete through the tombstone list (mark_deleted)"
            )
        return self.remove_key_prehashed(pid, self.key_positions(key))

    def remove_key_prehashed(self, pid: int, positions) -> bool:
        """:meth:`remove_key` with the key's positions already computed.

        Returns False, changing nothing, when the group filter does not
        hold the key.  Otherwise each of the key's counters drops by one
        (a saturated counter stays: it may hide other keys' adds, so it
        never decrements, which can leave a bit set but never causes a
        false negative) and bits whose counter reaches zero clear.
        ``nkeys`` follows :meth:`add`'s rule in reverse: it shrinks
        unless the filter still holds the key and is trusted to say so,
        as after removing one of two adds of the key.  It also shrinks
        when it would otherwise exceed the adds the leaf still counts
        (a false positive after the decrement, in a leaf that holds no
        re-adds).
        """
        group = self.group_of(pid)
        if group >= self.nfilters:
            return False
        counters = self.counters[group]
        if not all(counters[pos] for pos in positions):
            return False
        cap = self._counter_max
        for pos in positions:
            if 0 < counters[pos] < cap:
                counters[pos] -= 1
        cleared = [pos for pos in positions if not counters[pos]]
        if cleared:
            self.page[cleared, group >> 3] &= np.uint8(
                ~(1 << (group & 7)) & 0xFF)
        self.counts[group] = max(0, self.counts[group] - 1)
        if (not self._holds(group, positions)
                or self.nkeys > sum(self.counts)):
            self.nkeys = max(0, self.nkeys - 1)
        return True

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def match_keys(self, keys, positions=None) -> LeafMatches:
        """Algorithm 1's all-filter test of a batch of keys on this leaf:
        :meth:`match_many` with every pair on this leaf.

        ``positions``, if given, are the :meth:`hash_batch` rows of
        ``keys``.  The caller charges the probe CPU.
        """
        if positions is None:
            positions = self.hash_batch(keys)
        return BFLeaf.match_many(keys, [self],
                                 np.zeros(len(keys), dtype=np.intp),
                                 positions)

    @staticmethod
    def match_many(keys, leaves, which, positions) -> LeafMatches:
        """Algorithm 1's all-filter test of a batch of (key, leaf) pairs.

        Pair ``j`` tests ``keys[j]``, with bit positions
        ``positions[j]`` (its :meth:`hash_rows` row), against every
        filter of ``leaves[which[j]]``.  All pairs are tested in one
        :meth:`_match_matrix` gather, whose ``nonzero`` output is kept as
        is, minus the pairs whose key is tombstoned in their leaf, beside
        each pair's page geometry, read now: later inserts into a leaf
        cannot move a test's runs.  :func:`build_page_runs` turns it into
        runs.  The leaves must share their geometry but for
        ``max_filters``, so pages of different widths mix.  The caller
        charges the probe CPU.
        """
        which = np.asarray(which, dtype=np.intp)
        # Row-major: each pair's matched groups are a contiguous,
        # ascending slice.
        rows, groups = BFLeaf._match_matrix([leaf.page for leaf in leaves],
                                            which, positions)
        cover = np.array([(leaf.min_pid, leaf.min_pid + leaf.pages_covered)
                          for leaf in leaves], dtype=np.int64)[which]
        spill = []
        if any(leaf.deleted_keys or leaf.spill_back_pages
               for leaf in leaves):
            live = np.ones(len(which), dtype=bool)
            for r, (t, key) in enumerate(zip(which.tolist(), keys)):
                leaf = leaves[t]
                if key in leaf.deleted_keys:
                    live[r] = False
                elif leaf.spill_back_pages and key == leaf.min_key:
                    spill.append((r, leaf.min_pid - leaf.spill_back_pages,
                                  leaf.spill_back_pages))
            keep = live[rows]
            rows, groups = rows[keep], groups[keep]
        return LeafMatches(len(which), rows, groups, cover[:, 0],
                           cover[:, 1], leaves[0].geometry.pages_per_bf,
                           spill)

    def matching_page_runs_many(self, keys, positions=None
                                ) -> list[list[tuple[int, int]]]:
        """(first_pid, npages) runs to fetch for each probe key.

        :meth:`match_keys` then :func:`build_page_runs`, split per key:
        entry ``j`` holds the matched groups' page ranges, adjacent ones
        merged, after the spill-back pages when ``keys[j]`` is the leaf's
        minimum; a tombstoned key matches nothing.
        """
        offsets, first, npages = build_page_runs(
            [self.match_keys(keys, positions)])
        first, npages = first.tolist(), npages.tolist()
        return [list(zip(first[a:b], npages[a:b]))
                for a, b in zip(offsets, offsets[1:])]

    @staticmethod
    def hash_rows(keys, leaves, which) -> np.ndarray:
        """Hash each key under one of many leaves in one call.

        Row ``j`` is ``keys[j]`` hashed under ``leaves[which[j]]``'s
        filter seed, equal to that leaf's :meth:`hash_batch` row.  The
        leaves must share their hash geometry (k, bits per filter), as
        all leaves of one tree do, so the whole batch is one
        :func:`bloom_positions_batch` call with a per-row seed array.
        """
        geo = leaves[0].geometry
        seeds = np.fromiter(
            (leaf.filter_seed & MASK64 for leaf in leaves),
            dtype=np.uint64, count=len(leaves),
        )[which]
        return bloom_positions_batch(
            keys_to_int_array(keys), geo.hash_count, geo.bits_per_bf, seeds
        )

    @staticmethod
    def _match_matrix(pages, which, positions: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """The filter-match matrix of prehashed (key, page) rows, as its
        ``np.nonzero`` output.

        Row ``j`` tests the ``(n, k)`` bit positions ``positions[j]``
        against every filter of the bit-sliced page ``pages[which[j]]``:
        the AND of the k page rows they name holds the row's matches,
        packed like a page row, and entry ``(j, g)`` of the matrix is
        bit ``g & 7`` of its byte ``g >> 3``.  The pages (of one
        ``bits_per_bf``) are stacked into one matrix, narrower ones
        padded with zero bytes, and every row of every pair is read in
        one gather; a page's filters past the ones in use never match.
        Only the nonzero bytes are unpacked.  Returns ``(rows, groups)``,
        rows ascending and each row's groups ascending.  Rows are
        gathered in chunks bounding the ``(chunk, k, width)`` gather to
        ~64 MB, so a huge batch (a boundary-enumerating range scan can
        probe 100k values) cannot blow up peak memory; normal probe
        batches fit one chunk.

        No tombstone handling — callers apply the deleted-key lists.
        Static like :meth:`hash_rows`; call it through the class.
        """
        if len(pages) == 1:
            stack, rows = pages[0], positions
        else:
            width = max(page.shape[1] for page in pages)
            stack = np.concatenate([
                page if page.shape[1] == width
                else np.pad(page, ((0, 0), (0, width - page.shape[1])))
                for page in pages
            ])
            rows = positions + (np.asarray(which) * len(pages[0]))[:, None]
        n, k = positions.shape
        width = stack.shape[1]
        step = max(1, (1 << 26) // (width * k))
        if n <= step:
            hits = np.bitwise_and.reduce(stack[rows], axis=1)
        else:
            hits = np.empty((n, width), dtype=np.uint8)
            for start in range(0, n, step):
                hits[start:start + step] = np.bitwise_and.reduce(
                    stack[rows[start:start + step]], axis=1)
        flat = hits.reshape(-1)
        at = flat.nonzero()[0]
        bits = np.unpackbits(flat[at], bitorder="little").nonzero()[0]
        row, byte = np.divmod(at[bits >> 3], width)
        return row, (byte << 3) + (bits & 7)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def effective_fpp(self) -> float:
        """Nominal fpp adjusted for overflow inserts (Equation 14)."""
        if self.nkeys == 0:
            return 0.0
        base = self.geometry.fpp
        if self.extra_inserts == 0:
            return base
        nominal = self.nkeys - self.extra_inserts
        if nominal <= 0:
            return 1.0
        return fpp_after_inserts(base, self.extra_inserts / nominal)


class LeafOverflow(Exception):
    """Raised when an insert needs more page coverage than the leaf budget."""
