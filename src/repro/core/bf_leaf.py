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

Layout: like the paper's index page, a plain leaf stores its filters in
one contiguous ``(capacity, words_per_filter)`` uint64 matrix,
:attr:`BFLeaf.page`.  Each :class:`~repro.core.bloom.BloomFilter` in
``filters`` is a thin handle whose word array is a row view of that
matrix, so per-filter writes land in the page and a batch probe tests
all S filters with one gather (:meth:`BFLeaf._match_matrix`).  Rows past
``nfilters`` stay zero and can never match.  Every filter of a leaf
shares nbits/k/seed, so a key is hashed once per leaf; a tree hashes all
(key, leaf) rows of a batch in a single call (:meth:`BFLeaf.hash_rows`)
and bulk loading hashes each leaf's pages in one call
(:meth:`BFLeaf.add_pages`).  Counting-filter leaves (§7) keep a plain
list of per-filter counter arrays instead of a page.

Update support (paper §7): the leaf keeps a *deleted-key list* so deletes
do not degrade the fpp, and tracks ``extra_inserts`` beyond nominal
capacity so the effective fpp after overflowing inserts follows
Equation 14.

Probing is batch-only: :meth:`BFLeaf.matching_page_runs_many` runs
Algorithm 1's all-filter test for a batch of keys (optionally fed
prehashed positions); a single key is a batch of one.  Writes come as
scalar :meth:`BFLeaf.add` and the prehashed :meth:`BFLeaf.add_prehashed`
that ``BFTree.insert_many`` drives; both leave bit-identical state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bloom import (
    BloomFilter,
    bits_for_capacity,
    fpp_after_inserts,
    optimal_hash_count,
    page_popcount,
    page_set_positions,
    page_test,
    page_test_rows,
    words_per_filter,
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
    filters: list[BloomFilter] = field(default_factory=list)
    pages_covered: int = 0              # may be < len(filters) * pages_per_bf
    deleted_keys: set = field(default_factory=set)
    extra_inserts: int = 0              # inserts beyond nominal capacity
    #: Pages *before* ``min_pid`` that also contain ``min_key``.  When a
    #: key's duplicates straddle a leaf boundary, Algorithm 2 lets sibling
    #: page ranges overlap; we record the overlap here so a probe for
    #: ``min_key`` also fetches the preceding pages.
    spill_back_pages: int = 0
    #: Hash seed shared by every filter of this leaf.  ``None`` (the
    #: bulk-load default) means "use the node id at filter creation";
    #: it is pinned explicitly when the leaf changes owner (sharding
    #: reallocates node ids) or is created by a split (which derives a
    #: *structural* seed from the covered pages), so that filter bit
    #: patterns — and therefore false positives — do not depend on the
    #: allocation order of whichever tree happens to hold the leaf.
    #: All filters of one leaf must share one seed: the vectorized
    #: probe path hashes each key batch once per leaf.
    filter_seed: int | None = None
    #: The index page of a plain leaf: a ``(capacity, words_per_filter)``
    #: uint64 matrix whose row ``i`` is ``filters[i]._words`` (rows at or
    #: past ``nfilters`` are zero).  ``None`` before the first filter
    #: exists and for counting leaves.  Filters passed to the constructor
    #: are copied onto a fresh page.
    page: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.filters and self.page is None
                and self.geometry.filter_kind != "counting"):
            self._repage(len(self.filters))

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def max_pid(self) -> int:
        """Last data page covered (inclusive)."""
        return self.min_pid + max(self.pages_covered, 1) - 1

    @property
    def nfilters(self) -> int:
        return len(self.filters)

    @property
    def key_capacity(self) -> int:
        return self.geometry.key_capacity

    @property
    def is_full(self) -> bool:
        """Leaf cannot take another page group within its page budget."""
        return self.nfilters >= self.geometry.max_filters

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
    def filter_hash_seed(self) -> int:
        """The hash seed every filter of this leaf uses (see filter_seed)."""
        if self.filters:
            return self.filters[0].seed
        return self.node_id if self.filter_seed is None else self.filter_seed

    def key_positions(self, key) -> list[int]:
        """The k filter bit positions ``key`` hashes to in this leaf."""
        geo = self.geometry
        return bloom_positions(
            key_to_int(key), geo.hash_count, geo.bits_per_bf,
            self.filter_hash_seed(),
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
            self.filter_hash_seed(),
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
        ``nkeys`` and suppress the split that would rebuild it.)
        """
        return self.add_prehashed(key, pid, self.key_positions(key))

    def duplicate_prehashed(self, pid: int, positions) -> bool:
        """Would adding a key with these positions on ``pid`` be a re-insert?

        True when the group filter covering ``pid`` already reports the
        key present (bit level) *and* the filter is still reliable
        enough to say so (its effective fpp is below
        :data:`DUPLICATE_TRUST_MAX_FPP`) — such an add cannot grow
        ``nkeys``.
        """
        group = self.group_of(pid)
        if group >= self.nfilters:
            return False
        filt = self.filters[group]
        return (filt.contains_positions(positions)
                and filt.effective_fpp() <= DUPLICATE_TRUST_MAX_FPP)

    def duplicate_flags(self, groups: np.ndarray,
                        positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`duplicate_prehashed` for a key batch.

        Key ``j`` has bit ``positions[j]`` and lands in existing filter
        ``groups[j]`` (``< nfilters``).  A plain leaf answers from its
        page: one row gather for membership, plus a popcount of only the
        rows the batch touches for the trust gate (the float expression
        of :meth:`BloomFilter.effective_fpp`, vectorized).
        """
        if self.page is None:
            flags = np.zeros(len(groups), dtype=bool)
            by_group: dict[int, list[int]] = {}
            for r, group in enumerate(groups.tolist()):
                by_group.setdefault(group, []).append(r)
            for group, rs in by_group.items():
                filt = self.filters[group]
                if filt.effective_fpp() <= DUPLICATE_TRUST_MAX_FPP:
                    flags[rs] = filt.test_positions(positions[rs])
            return flags
        geo = self.geometry
        fill = page_popcount(self.page, groups) / geo.bits_per_bf
        trust = fill ** geo.hash_count <= DUPLICATE_TRUST_MAX_FPP
        return page_test_rows(self.page, groups, positions) & trust

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
        filt = self.filters[group]
        if duplicate is None:
            duplicate = (filt.contains_positions(positions)
                         and filt.effective_fpp()
                         <= DUPLICATE_TRUST_MAX_FPP)
        if duplicate and self.geometry.filter_kind != "counting":
            # All bits already set: the scatter would be a no-op.  Only
            # the add multiplicity is recorded (as filter.add would).
            filt.count += 1
        else:
            filt.add_positions(positions)
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

    def add_pages(self, keys, pids) -> None:
        """Vectorized :meth:`add` of a run of data pages (bulk load).

        ``keys`` concatenates the sorted distinct keys of each page, and
        ``pids`` holds each key's page id, non-decreasing.  The resulting
        filter bits equal :meth:`add` applied key by key, but a plain
        leaf hashes the whole run in one call and ORs every bit into its
        page in one scatter, and every key counts toward ``nkeys``.
        Raises :class:`LeafOverflow` before changing anything when the
        last page lies past the leaf's filter budget.
        """
        if len(keys) == 0:
            return
        pids = np.asarray(pids, dtype=np.int64)
        first = self.group_of(int(pids[0]))
        last = self.group_of(int(pids[-1]))
        if last >= self.geometry.max_filters:
            raise LeafOverflow(
                f"page {int(pids[-1])} needs filter {last} but leaf holds "
                f"at most {self.geometry.max_filters}"
            )
        self._grow_to(last)
        groups = (pids - self.min_pid) // self.geometry.pages_per_bf
        cuts = np.flatnonzero(pids[1:] != pids[:-1]) + 1
        heads, ends = np.r_[0, cuts], np.r_[cuts, len(keys)]
        if self.page is None:
            # Counting filters keep their per-filter path, one page at a
            # time (counter saturation is applied per bulk_add call).
            for lo, hi in zip(heads.tolist(), ends.tolist()):
                self.filters[int(groups[lo])].bulk_add(keys[lo:hi])
        else:
            page_set_positions(self.page, groups, self.hash_batch(keys))
            counts = np.bincount(groups - first).tolist()
            for group, count in enumerate(counts, start=first):
                self.filters[group].count += count
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
        lo_key = min(keys[heads].tolist())
        hi_key = max(keys[ends - 1].tolist())
        if self.min_key is None or lo_key < self.min_key:
            self.min_key = lo_key
        if self.max_key is None or hi_key > self.max_key:
            self.max_key = hi_key

    def _grow_to(self, group: int) -> None:
        """Append empty filters until filter ``group`` exists.

        Plain filters are row views of the page, which is reallocated
        (rows copied, every filter re-pointed) when an oversized leaf
        outgrows it.
        """
        if self.nfilters > group:
            return
        geo = self.geometry
        seed = self.node_id if self.filter_seed is None else self.filter_seed
        if geo.filter_kind == "counting":
            from repro.core.variants import CountingBloomFilter

            while self.nfilters <= group:
                self.filters.append(CountingBloomFilter(
                    nbits=geo.bits_per_bf, k=geo.hash_count, seed=seed,
                    counter_bits=geo.counter_bits,
                ))
            return
        if self.page is None or self.page.shape[0] <= group:
            self._repage(group + 1)
        page = self.page
        while self.nfilters <= group:
            self.filters.append(BloomFilter(
                nbits=geo.bits_per_bf, k=geo.hash_count, seed=seed,
                words=page[self.nfilters],
            ))

    def _repage(self, need: int) -> None:
        """Move the plain filters onto a new zeroed page with room for at
        least ``need`` filters (the geometry's budget, or double the old
        page for an oversized leaf, whichever is larger)."""
        old = 0 if self.page is None else self.page.shape[0]
        capacity = max(need, self.geometry.max_filters, 2 * old)
        page = np.zeros(
            (capacity, words_per_filter(self.geometry.bits_per_bf)),
            dtype=np.uint64,
        )
        for i, filt in enumerate(self.filters):
            page[i] = filt._words
            filt._words = page[i]
        self.page = page

    def mark_deleted(self, key) -> None:
        """Record ``key`` in the deleted list (fpp-preserving delete, §7)."""
        self.deleted_keys.add(key)

    def remove_key(self, key, pid: int) -> bool:
        """In-place delete via counter decrement (counting filters only).

        The caller must supply the page the tuple lived on — decrementing
        a filter the key was never added to would corrupt other keys'
        counters.
        """
        if self.geometry.filter_kind != "counting":
            raise ValueError(
                "remove_key requires filter_kind='counting'; plain filters "
                "delete through the tombstone list (mark_deleted)"
            )
        return self.remove_key_prehashed(pid, self.key_positions(key))

    def remove_key_prehashed(self, pid: int, positions) -> bool:
        """:meth:`remove_key` with the key's positions already computed
        (the batch delete path hashes once per leaf)."""
        group = self.group_of(pid)
        if group >= self.nfilters:
            return False
        removed = self.filters[group].remove_positions(positions)
        if removed:
            self.nkeys = max(0, self.nkeys - 1)
        return removed

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def matching_page_runs_many(self, keys, positions=None
                                ) -> list[list[tuple[int, int]]]:
        """(first_pid, npages) runs to fetch for each probe key.

        Algorithm 1 probes *every* filter of the leaf; here all S filters
        are tested for all N keys in one NumPy pass.  The leaf's filters
        share geometry (nbits/k/seed), so the k bit positions per key are
        hashed once (or passed in as ``positions``, the
        :meth:`hash_batch` rows of ``keys``) and gathered against the
        whole page.  Entry ``j`` holds the matched groups' page ranges,
        adjacent ones merged, plus the spill-back pages when ``keys[j]``
        is the leaf's minimum; a tombstoned key matches nothing.  The
        caller charges the probe CPU.
        """
        if positions is None:
            positions = self.hash_batch(keys)
        # One nonzero over the whole matrix: row-major, so each key's
        # matched groups are a contiguous, ascending slice of ``groups``.
        rows, groups = np.nonzero(self._match_matrix(positions))
        cuts = np.searchsorted(rows, np.arange(len(keys) + 1)).tolist()
        groups = groups.tolist()
        deleted = self.deleted_keys
        return [[] if key in deleted else self._build_runs(key, groups[a:b])
                for key, a, b in zip(keys, cuts, cuts[1:])]

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
            (leaf.filter_hash_seed() & MASK64 for leaf in leaves),
            dtype=np.uint64, count=len(leaves),
        )[which]
        return bloom_positions_batch(
            keys_to_int_array(keys), geo.hash_count, geo.bits_per_bf, seeds
        )

    def _match_matrix(self, positions: np.ndarray) -> np.ndarray:
        """Raw ``(n, nfilters)`` boolean filter-match matrix of prehashed
        ``(n, k)`` bit positions.

        No tombstone handling — callers apply the deleted-key list.  A
        plain leaf gathers straight from its page; counting filters are
        tested one by one.
        """
        n = len(positions)
        if n == 0 or not self.filters:
            return np.zeros((n, self.nfilters), dtype=bool)
        if self.page is not None:
            return page_test(self.page[:self.nfilters], positions)
        matrix = np.empty((n, self.nfilters), dtype=bool)
        for i, bf in enumerate(self.filters):
            matrix[:, i] = bf.test_positions(positions)
        return matrix

    def _build_runs(self, key, groups) -> list[tuple[int, int]]:
        """Merge matched ``groups`` into fetchable (first_pid, npages) runs.

        ``key`` must not be tombstoned (callers check); it is only used
        for the spill-back test on the leaf's minimum key.  Each group's
        pages are :meth:`group_page_range`, computed inline.
        """
        runs: list[tuple[int, int]] = []
        if (
            self.spill_back_pages
            and self.min_key is not None
            and key == self.min_key
        ):
            runs.append((self.min_pid - self.spill_back_pages,
                         self.spill_back_pages))
        g = self.geometry.pages_per_bf
        min_pid = self.min_pid
        end = min_pid + self.pages_covered
        for group in groups:
            first = min_pid + group * g
            npages = min(g, end - first)
            if npages <= 0:
                continue
            if runs and runs[-1][0] + runs[-1][1] == first:
                prev_first, prev_n = runs[-1]
                runs[-1] = (prev_first, prev_n + npages)
            else:
                runs.append((first, npages))
        return runs

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def bits_used(self) -> int:
        per_slot = self.geometry.bits_per_bf
        if self.geometry.filter_kind == "counting":
            per_slot *= self.geometry.counter_bits
        return self.nfilters * per_slot

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

    def measured_fill(self) -> float:
        """Mean fill fraction across populated filters (diagnostics)."""
        populated = [f for f in self.filters if f.count]
        if not populated:
            return 0.0
        return sum(f.fill_fraction() for f in populated) / len(populated)


class LeafOverflow(Exception):
    """Raised when an insert needs more page coverage than the leaf budget."""
