"""BF-Tree: the paper's approximate tree index (Section 4).

A :class:`BFTree` keeps B+-Tree-style internal nodes (shared machinery in
:mod:`repro.core.node`) over Bloom-filter leaves
(:class:`~repro.core.bf_leaf.BFLeaf`).  It indexes a
:class:`~repro.storage.relation.Relation` whose tuples are *ordered or
partitioned* on the indexed attribute — the implicit-clustering assumption
of §1.1.

Algorithms implemented, with their paper counterparts:

* :meth:`BFTree.apply_many` — Algorithm 1 (probe all BFs of the leaf,
  fetch matching pages sorted, stop early for unique keys),
  Algorithm 3 and §7's deletes over one ordered chunk of point reads,
  inserts, scans and deletes, answered as if applied one by one: the
  chunk is routed and hashed in one pass per plan (a split re-plans
  the rest), each touched leaf's Bloom-filter tests collapse into one
  page gather, each leaf's queued index charges into one replayed
  charge per group, and every read's data pages are scanned in one
  kernel pass.  It is the
  one-tree case of :meth:`BFTree.apply_across`, which walks the chunks
  of several trees over one relation (the shards of a service) in one
  pass: one hash call for every tree's keys, one filter gather for
  every tree's chunk-end tests and one page scan for every tree's
  reads.  The Router replays every shard's chunk of a round through
  it.  :meth:`BFTree.search_many`, :meth:`BFTree.insert_many`, the
  inherited ``delete_many`` and :meth:`BFTree.range_scan_many` are its
  read-only, insert-only, delete-only and scan-only cases, and
  :meth:`BFTree.search` and :meth:`BFTree.range_scan` batches of one;
  the harness's ``run_probes`` and the CLI's ``probe`` replay whole
  probe sets through it.
* :meth:`BFTree.insert`      — Algorithm 3 (extend key range, bump #keys,
  add to the per-page BF; split when over capacity).
* :meth:`BFTree.delete`      — §7's two delete mechanisms: the deleted-key
  list of plain filters, counter decrements of counting filters.
* :meth:`BFTree._split_leaf` — Algorithm 2 (rebuild two leaves; we rebuild
  by re-scanning the leaf's small page range, the recomputation that §3
  argues is feasible precisely because leaf ranges are small).
* :meth:`BFTree.bulk_load`   — §4.2 bulk loading (one pass over the data,
  one pass building the directory over the leaves).
* :meth:`BFTree._scan` — §7 range scans, one step of the op walk:
  the window's ``lo`` is routed with the plan's point keys, its leaf
  chain and page runs are charged at its turn (Eq. 13 split
  preserved), with optional boundary-partition enumeration, and match
  counting waits for one NumPy pass per engine pass.
* :meth:`BFTree.intersect_probe` — §8 index intersection.

Storage binding: the tree's structure is device-independent.  Before
measuring, call :meth:`bind` with a :class:`~repro.storage.config.
StorageStack`; internal/leaf node accesses then charge the index device
(optionally through a warm buffer pool) and data-page fetches charge the
data device.  Every charge states its access pattern (random or
sequential, Eq. 13) and devices keep no head position, so the batch
engines may charge in any order without changing a counter.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.api.protocol import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    Capabilities,
    IndexBackend,
    check_op_codes,
    failed_request,
    mark_failed_request,
)
from repro.analysis.sanitize import maybe_check
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    as_scalars,
    normalize_scan_windows,
)
from repro.core.bf_leaf import (
    LEAF_HEADER_BYTES,
    BFLeaf,
    BFLeafGeometry,
    LeafMatches,
    LeafOverflow,
    build_page_runs,
)
from repro.core.bloom import page_from_rows, page_to_rows
from repro.core.node import (
    InnerTree,
    NodeStore,
    fanout_for,
    link_chain,
    ordered_chain,
)
from repro.storage.config import CPU_BLOOM_PROBE, CPU_TUPLE_SCAN, StorageStack
from repro.storage.device import PAGE_SIZE, classify_read_runs
from repro.storage.relation import Relation


#: The skew guard's floor: filters are sized so the realized aggregate
#: false-positive rate never exceeds max(fpp, this) even when per-group
#: key counts are skewed.  Below this rate skew effects are unmeasurable
#: in thousand-probe experiments, and Equation-1 sizing (which the paper's
#: Table 2 is computed with) takes over.
SKEW_GUARD_FPP = 1e-4

#: Expected false data pages per probe the skew guard tolerates when it
#: re-sizes filters (half a page: invisible next to the true-match fetch).
FALSE_PAGE_BUDGET = 0.5

#: ``format`` tag of :meth:`BFTree.snapshot_state`.  Version 2 stores
#: each leaf's filters as row-form bit arrays, one per filter
#: (:func:`~repro.core.bloom.page_to_rows`), plus an add-count vector;
#: states of the per-filter format (plain ``"bf-tree"``) are rejected.
SNAPSHOT_FORMAT = "bf-tree/2"


@dataclass(frozen=True)
class BFTreeConfig:
    """Tuning knobs of a BF-Tree (paper §4.1).

    ``fpp`` is the headline accuracy knob.  ``pages_per_bf`` sets the
    indexing granularity (data pages per Bloom filter); ``None`` lets the
    tree pick ``max(1, round(avgcard / tuples_per_page))`` so each filter
    covers roughly one key's worth of pages for high-cardinality
    attributes.
    """

    fpp: float = 0.01
    hash_count: int | None = None     # None = optimal k; paper fixes 3
    pages_per_bf: int | None = None
    key_size: int = 8
    ptr_size: int = 8
    page_size: int = PAGE_SIZE
    #: "plain" = the paper's Bloom filters + tombstone deletes;
    #: "counting" = §7's delete-supporting variant (4x filter space).
    filter_kind: str = "plain"

    def __post_init__(self) -> None:
        if not 0.0 < self.fpp < 1.0:
            raise ValueError(f"fpp must be in (0, 1), got {self.fpp}")
        if self.hash_count is not None and self.hash_count < 1:
            raise ValueError("hash_count must be >= 1 (or None for optimal)")
        if self.pages_per_bf is not None and self.pages_per_bf < 1:
            raise ValueError("pages_per_bf must be >= 1 (or None for auto)")
        if self.filter_kind not in ("plain", "counting"):
            raise ValueError(
                f"filter_kind must be 'plain' or 'counting', "
                f"got {self.filter_kind!r}"
            )


@dataclass
class _Walk:
    """One tree's state in a pass of :meth:`BFTree.apply_across`,
    indexed by op."""

    tree: "BFTree"
    codes: list[int]
    keys: list
    #: The op's third field: a scan's ``hi``, a delete's page id or
    #: None (an insert's pid, unused).
    args: list
    #: Inserts' data pages, -1 for other ops.
    pids: list[int]
    #: Keys and pids of the point ops (reads, inserts and deletes), and
    #: the scans' ``lo``, in op order.
    point_keys: list
    point_pids: list[int]
    scan_keys: list
    results: list
    latencies: list[float]
    sink: list[float] | None
    #: The bound stack when latencies are tracked, else None.
    stack: StorageStack | None
    stats: object
    #: :meth:`BFTree.range_scan_many`'s ``enumerate_boundaries``.
    boundaries: bool = False
    #: The walk's place in its pass, and the pass's filter tests, shared
    #: by its walks: one per flush, with the op and walk of each tested
    #: (key, leaf) pair in test order.  Every tested read fetches after
    #: the pass's walks.  Likewise the pass's scan results and their
    #: match-count jobs, columns ``(scan, first_pid, npages, lo, hi)``
    #: counted after the pass's walks.
    slot: int = 0
    tests: list[LeafMatches] = field(default_factory=list)
    tested: list[int] = field(default_factory=list)
    owner: list[int] = field(default_factory=list)
    scanned: list[RangeScanResult] = field(default_factory=list)
    jobs: tuple = ((), (), (), (), ())
    #: The current plan (written by :meth:`BFTree._plan_ops`): point op
    #: ``j`` is row ``j - base`` of its per-key columns, which are each
    #: point op's predicted leaf id, filter positions with one row per
    #: point op (None when no op reads them), and each insert's
    #: duplicate flag and filter group, plus
    #: the descent paths per leaf id (None on an empty tree).  The first
    #: plan's columns are shared by every walk of the pass.  Scan
    #: ``i - j`` (op ``i``, point op ``j``) starts at ``scan_pred[i - j]``.
    base: int = 0
    pred: list = field(default_factory=list)
    scan_pred: list[int] = field(default_factory=list)
    paths: dict | None = None
    rows: object = None
    dup0: list | None = None
    grp: list | None = None
    #: (leaf id, group) pairs whose plan flags a non-duplicate add or a
    #: counting filter's in-place delete under this plan has made stale.
    dirty: set = field(default_factory=set)
    #: Index charges queued per target leaf id (see
    #: :meth:`BFTree._flush_charges`): neighbour ids -> [(op, filters
    #: probed)] per read group, and None -> [(op, plan row)] for the
    #: known duplicate re-inserts no read or scan can see.
    queue: defaultdict = field(default_factory=lambda: defaultdict(dict))
    #: Filter tests queued per leaf id: (op, plan row or None).
    probes: dict[int, list] = field(default_factory=dict)


def _pass_geometry(tree: "BFTree") -> tuple | None:
    """The leaf geometry trees sharing a pass of
    :meth:`BFTree.apply_across` must agree on: every field a filter's
    hash, test and page runs read (``max_filters`` and the sizing
    inputs may differ)."""
    geo = tree.geometry
    if geo is None:
        return None
    return (geo.hash_count, geo.bits_per_bf, geo.pages_per_bf,
            geo.filter_kind, geo.counter_bits)


__all__ = ["BFTree", "BFTreeConfig", "SKEW_GUARD_FPP", "FALSE_PAGE_BUDGET"]


class BFTree(IndexBackend):
    """Approximate tree index over an ordered/partitioned relation."""

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        config: BFTreeConfig | None = None,
        unique: bool = False,
        ordered: bool = True,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.config = config or BFTreeConfig()
        self.unique = unique
        #: True when the column is fully sorted; False for merely
        #: *partitioned* data (implicit clustering, §1.1), where leaf key
        #: ranges may overlap and probes check neighbouring leaves.
        self.ordered = ordered
        self.store = NodeStore()
        self.inner = InnerTree(
            self.store,
            fanout=fanout_for(self.config.key_size, self.config.ptr_size,
                              self.config.page_size),
        )
        self.leaves: dict[int, BFLeaf] = {}
        self.geometry: BFLeafGeometry | None = None
        self._avg_cardinality = 1.0

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def bulk_load(
        cls,
        relation: Relation,
        key_column: str,
        config: BFTreeConfig | None = None,
        unique: bool = False,
        ordered: bool | None = None,
    ) -> "BFTree":
        """Build a packed BF-Tree in one pass over the data (paper §4.2).

        ``ordered=None`` auto-detects: a fully sorted column gets the
        ordered layout (spill-back handling for boundary-spanning keys,
        early-terminating fetches).  Pass ``ordered=False`` to index a
        merely *partitioned* column — e.g. TPCH's commitdate when the
        table is sorted on shipdate (the implicit clustering of §1.1).
        Leaf key ranges may then overlap, and probes also check
        neighbouring leaves whose ranges contain the key.  An unsorted
        column without ``ordered=False`` is rejected, because silently
        indexing badly-clustered data would produce a uselessly slow
        index.
        """
        keys = np.asarray(relation.columns[key_column])
        if len(keys) == 0:
            raise ValueError("cannot bulk load an empty relation")
        is_sorted = not np.any(keys[1:] < keys[:-1])
        if ordered is None:
            ordered = is_sorted
            if not is_sorted:
                raise ValueError(
                    f"column {key_column!r} is not ordered; pass "
                    "ordered=False to index partitioned data (paper §4.1)"
                )
        if ordered and not is_sorted:
            raise ValueError(
                f"column {key_column!r} is not sorted but ordered=True"
            )
        tree = cls(relation, key_column, config, unique, ordered=ordered)
        tree._avg_cardinality = len(keys) / max(1, len(np.unique(keys)))
        tree.geometry = tree._plan_geometry(keys if ordered else None)
        tree._build_leaves(keys)
        tree._build_directory()
        return tree

    @classmethod
    def from_leaves(
        cls,
        relation: Relation,
        key_column: str,
        leaves: Sequence[BFLeaf],
        config: BFTreeConfig | None = None,
        unique: bool = False,
        ordered: bool = True,
        geometry: BFLeafGeometry | None = None,
        avg_cardinality: float = 1.0,
    ) -> "BFTree":
        """Build a tree over an existing contiguous run of BF-leaves.

        This is the shard-safe construction path: a sharded service
        slices one bulk-loaded tree's leaf chain into contiguous runs
        and rebuilds an independent directory over each run, so every
        shard probes *exactly* the filters the unsharded tree would —
        identical Bloom bit patterns, identical false positives,
        identical data-page runs.  The method takes **ownership** of the
        leaf objects (node ids are reallocated from this tree's store
        and chain pointers are relinked and severed at the run's ends),
        so the donor tree must be discarded afterwards.

        ``geometry`` and ``avg_cardinality`` should be copied from the
        donor so size accounting and any later splits keep the donor's
        filter sizing.
        """
        if not leaves:
            raise ValueError("from_leaves needs at least one leaf")
        tree = cls(relation, key_column, config, unique, ordered=ordered)
        tree._avg_cardinality = avg_cardinality
        tree.geometry = (
            BFLeafGeometry(**vars(geometry)) if geometry is not None
            else BFLeafGeometry(**vars(leaves[0].geometry))
        )
        for leaf in leaves:
            # The leaf keeps its filter seed: only the node id moves.
            leaf.node_id = tree.store.allocate()
            tree.leaves[leaf.node_id] = leaf
        tree._leaf_order = link_chain(leaves)
        tree._build_directory()
        return tree

    def _plan_geometry(self, keys: np.ndarray | None = None) -> BFLeafGeometry:
        """Size the per-group filters from the data's key distribution.

        The granularity (pages per filter) targets roughly one key's
        worth of pages; the filter *bits* come from
        :meth:`_solve_filter_bits`, which makes the aggregate
        false-positive rate over the observed per-group key counts hit
        the target.  With uniform cardinality this reduces to Equation 1;
        with variable cardinality (the smart-home dataset, §6.5) it pays
        the extra bits skew requires, which is why the paper's SHD gains
        are only 2-3x against 12-48x for uniform data.
        """
        tpp = self.relation.tuples_per_page
        g = self.config.pages_per_bf
        if g is None:
            # Bias toward fine granularity: the paper says one filter per
            # page "gives the best results" (§4.1); only go coarser when a
            # single key's duplicates clearly span multiple pages.
            g = max(1, int(self._avg_cardinality / tpp))
        keys_stats = keys
        if keys_stats is None:
            keys_stats = np.asarray(self.relation.columns[self.key_column])
        # Equation-1 accounting (the paper's Table 2 is computed with it):
        # keys per group from tuples-per-page over the average cardinality.
        # Boundary-straddling keys load filters slightly above this
        # estimate; when that drift is material the gate below corrects it.
        expected = max(1.0, g * tpp / self._avg_cardinality)
        per_group = None
        if len(keys_stats) > tpp:
            per_group = self._keys_per_group(keys_stats, g)
        geometry = BFLeafGeometry.plan(
            fpp=self.config.fpp,
            expected_keys_per_group=expected,
            pages_per_bf=g,
            hash_count=self.config.hash_count,
            page_size=self.config.page_size,
            filter_kind=self.config.filter_kind,
        )
        if per_group is not None:
            realized = self._aggregate_rate(
                per_group, geometry.bits_per_bf, geometry.hash_count
            )
            # Engage the skew guard only on *material* blowups: the
            # realized rate must be above the design point AND cost more
            # than a token number of false pages per probe.  Tiny drifts
            # (a uniform PK, or very tight fpp where the realized rate is
            # still unmeasurable) keep the paper's Equation-1 sizes;
            # catastrophic skew (the SHD feed, where low-cardinality
            # regions overfill their filters toward fpp ~ 0.3) pays
            # exactly the bits it needs.
            expected_false_pages = realized * geometry.max_filters
            if (realized > 2 * self.config.fpp
                    and expected_false_pages > FALSE_PAGE_BUDGET):
                # Resize so a probe wastes at most ~half a page on false
                # positives (and never demand better than the nominal
                # fpp): the guard corrects material damage, it does not
                # gold-plate.
                guard_fpp = max(
                    self.config.fpp,
                    min(SKEW_GUARD_FPP * 5,
                        FALSE_PAGE_BUDGET / geometry.max_filters),
                )
                bits, k = self._solve_filter_bits(per_group, guard_fpp)
                if self.config.hash_count is not None:
                    k = self.config.hash_count
                geometry = replace(
                    geometry,
                    bits_per_bf=bits,
                    hash_count=k,
                    max_filters=max(1, (
                        (self.config.page_size - LEAF_HEADER_BYTES) * 8
                        // (bits * (geometry.counter_bits
                                    if geometry.filter_kind == "counting"
                                    else 1))
                    )),
                )
        return geometry

    @staticmethod
    def _aggregate_rate(per_group: np.ndarray, bits: int, k: int) -> float:
        """Expected aggregate fpp of ``bits``-bit k-hash filters under the
        empirical per-group key counts."""
        return float(np.mean((1.0 - np.exp(-k * per_group / bits)) ** k))

    def _solve_filter_bits(self, per_group: np.ndarray, fpp: float
                           ) -> tuple[int, int]:
        """Smallest filter size whose *aggregate* fpp hits the target.

        With uniform cardinality every group holds the mean key count and
        this reduces to Equation 1.  With skewed cardinality (the SHD
        feed) the heavy groups overfill mean-sized filters and the
        realized fpp explodes (§4.1's skew hazard); solving

            mean_g (1 - e^{-k n_g / b})^k  =  fpp

        over the empirical per-group counts ``n_g`` pays exactly the bits
        the skew requires and no more.
        """
        from repro.core.bloom import LN2, bits_for_capacity

        mean_n = max(1e-9, float(per_group.mean()))

        def k_for(bits: float) -> int:
            return max(1, min(32, round(bits / mean_n * LN2)))

        def rate(bits: float) -> float:
            k = k_for(bits)
            return float(np.mean(
                (1.0 - np.exp(-k * per_group / bits)) ** k
            ))

        lo = max(4.0, bits_for_capacity(mean_n, fpp) * 0.5)
        hi = lo
        while rate(hi) > fpp and hi < 1e7:
            hi *= 2
        for _ in range(60):
            mid = (lo + hi) / 2
            if rate(mid) > fpp:
                lo = mid
            else:
                hi = mid
        bits = max(4, math.ceil(hi))
        return bits, k_for(bits)

    def _keys_per_group(self, keys: np.ndarray, g: int) -> np.ndarray:
        """Distinct keys in each ``g``-page group of the file."""
        tpp = self.relation.tuples_per_page
        group_tuples = g * tpp
        starts = np.arange(0, len(keys), group_tuples)
        if not self.ordered:
            return np.asarray([
                len(np.unique(keys[s : s + group_tuples])) for s in starts
            ], dtype=np.float64)
        new_key = np.empty(len(keys), dtype=bool)
        new_key[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
        per_group = np.add.reduceat(new_key, starts).astype(np.float64)
        per_group += ~new_key[starts]
        return per_group

    def _build_leaves(self, keys: np.ndarray) -> None:
        assert self.geometry is not None
        dkeys, dpids, starts = self._distinct_page_keys(keys)
        firsts = dkeys[starts[:-1]].tolist()
        lasts = dkeys[starts[1:] - 1].tolist()
        ppb = self.geometry.pages_per_bf
        budget = self.geometry.max_filters
        leaf = self._new_leaf(min_pid=0)
        order: list[BFLeaf] = [leaf]
        # Pages are assigned to leaves first and each leaf's run is added
        # in one vectorized pass when it closes.  A leaf is full once it
        # holds a filter for every group of its filter budget;
        # its groups are filled contiguously from min_pid.
        run_start = 0
        # First page id on which the running (largest-so-far) key appeared;
        # when a leaf closes mid-key this becomes the new leaf's spill-back
        # origin, regardless of how many leaves the key already spans.
        key_start_pid = 0
        last_key = None
        for pid in range(self.relation.npages):
            if (
                starts[pid] > starts[run_start]
                and (pid - 1 - run_start) // ppb + 1 >= budget
            ):
                self._leaf_add_pages(leaf, dkeys, dpids, starts,
                                     run_start, pid)
                spans = self.ordered and firsts[pid] == last_key
                new_leaf = self._new_leaf(min_pid=pid)
                if spans:
                    new_leaf.spill_back_pages = pid - key_start_pid
                leaf.next_leaf_id = new_leaf.node_id
                new_leaf.prev_leaf_id = leaf.node_id
                leaf = new_leaf
                order.append(leaf)
                run_start = pid
            if last_key is None or lasts[pid] != last_key:
                key_start_pid = pid
            last_key = lasts[pid]
        self._leaf_add_pages(leaf, dkeys, dpids, starts, run_start,
                             self.relation.npages)
        self._leaf_order = [l.node_id for l in order]

    def _distinct_page_keys(self, keys: np.ndarray):
        """Every data page's sorted distinct keys, concatenated.

        Returns ``(dkeys, dpids, starts)``: the keys, each key's page id,
        and the offset of page ``p``'s first key in ``starts[p]`` (with a
        final end offset) — ``np.unique`` per page, for the whole column
        at once.
        """
        tpp = self.relation.tuples_per_page
        pid_of = np.arange(len(keys)) // tpp
        if not self.ordered:
            perm = np.lexsort((keys, pid_of))
            keys, pid_of = keys[perm], pid_of[perm]
        keep = np.ones(len(keys), dtype=bool)
        keep[1:] = (keys[1:] != keys[:-1]) | (pid_of[1:] != pid_of[:-1])
        dpids = pid_of[keep]
        starts = np.searchsorted(dpids, np.arange(self.relation.npages + 1))
        return keys[keep], dpids, starts

    def _leaf_add_pages(self, leaf: BFLeaf, dkeys: np.ndarray,
                        dpids: np.ndarray, starts: np.ndarray,
                        first_pid: int, end_pid: int) -> None:
        """Add pages ``[first_pid, end_pid)`` to ``leaf`` in one hash
        pass, growing an oversized leaf for spanning keys."""
        lo, hi = int(starts[first_pid]), int(starts[end_pid])
        keys, pids = dkeys[lo:hi], dpids[lo:hi]
        try:
            leaf.add_pages(keys, pids)
        except LeafOverflow:
            leaf.geometry = replace(
                leaf.geometry, max_filters=leaf.group_of(int(pids[-1])) + 1
            )
            leaf.add_pages(keys, pids)

    def _leaf_add_unchecked(self, leaf: BFLeaf, key, pid: int) -> None:
        """Add to a leaf, letting it overflow its budget for a spanning key."""
        try:
            leaf.add(key, pid)
        except LeafOverflow:
            # A single key spans more pages than the leaf budget covers:
            # grow this leaf beyond one index page (rare; size accounting
            # below charges the overflow pages).
            leaf.geometry = replace(
                leaf.geometry, max_filters=leaf.group_of(pid) + 1
            )
            leaf.add(key, pid)

    def _new_leaf(self, min_pid: int,
                  filter_seed: int | None = None) -> BFLeaf:
        assert self.geometry is not None
        leaf = BFLeaf(
            node_id=self.store.allocate(),
            geometry=BFLeafGeometry(**vars(self.geometry)),
            min_pid=min_pid,
            filter_seed=filter_seed,
        )
        self.leaves[leaf.node_id] = leaf
        return leaf

    def _build_directory(self) -> None:
        leaf_ids = self._leaf_order
        separators = [self.leaves[lid].min_key for lid in leaf_ids[1:]]
        if not self.ordered and separators:
            # Partitioned data: leaf minimums need not be monotone; the
            # directory's binary search wants non-decreasing fences, and
            # the neighbour walk at probe time covers the fuzz.
            running = separators[0]
            monotone = []
            for sep in separators:
                running = max(running, sep)
                monotone.append(running)
            separators = monotone
        self.inner.build(separators, leaf_ids)

    # ==================================================================
    # storage binding
    # ==================================================================
    def bind(self, stack: StorageStack, warm: bool = False) -> None:
        """Attach the tree to a storage stack before measuring;
        ``warm=True`` pins the internal nodes (:meth:`InnerTree.bind`)."""
        super().bind(stack, warm)
        self.inner.bind(stack.index_device, warm)

    def unbind(self) -> None:
        super().unbind()
        self.inner.bind(None)

    # ==================================================================
    # Index protocol surface (repro.api)
    # ==================================================================
    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=self.ordered, mutable=True,
                            scannable=True, unique=self.unique)

    def write_target(self, tid: int) -> int:
        """BF-Trees index data *pages*: the write target of tuple ``tid``
        is its page id (rid-based backends keep the tuple id)."""
        return self.relation.page_of(int(tid))

    supports_sharding = True

    def shard_leaves(self) -> list:
        """Leaf chain in key order, ready for ShardedIndex slicing."""
        if not self.ordered:
            raise ValueError(
                "ShardedIndex requires an ordered column (partitioned "
                "data would probe neighbour leaves across shard borders)"
            )
        # The live chain, not the build-time order: leaf splits since
        # the build replace leaves that order still names.
        return self.leaves_in_order()

    def shard_from_leaves(self, run: list) -> "BFTree":
        return BFTree.from_leaves(
            self.relation, self.key_column, run,
            config=self.config, unique=self.unique, ordered=self.ordered,
            geometry=self.geometry, avg_cardinality=self._avg_cardinality,
        )

    @staticmethod
    def shard_leaf_span(leaf) -> tuple:
        return (leaf.min_key, leaf.max_key)

    @staticmethod
    def shard_cut_spans(left, right) -> bool:
        if right.spill_back_pages:
            return True
        return right.min_key is not None and right.min_key == left.max_key

    # ==================================================================
    # checkpoint hooks (repro.persist)
    # ==================================================================
    def snapshot_state(self) -> dict:
        """Full structural dump: directory, leaf chain, filter pages.

        Node ids, chain pointers and the allocator cursor are captured
        verbatim so a restored tree is *bit-identical* to the original —
        same descent paths, same filter bit patterns (and therefore the
        same false positives), same simulated I/O charges.  Each leaf
        contributes its filter seed, add counts and the rows in use of
        its bit page (and counter page, for counting filters): one array
        each, close to the information-theoretic size the paper's
        Table 2 space story depends on.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "column": self.key_column,
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(self.config)},
            "unique": self.unique,
            "ordered": self.ordered,
            "avg_cardinality": self._avg_cardinality,
            "geometry": (None if self.geometry is None
                         else dict(vars(self.geometry))),
            "inner": self.inner.state_dict(),
            "leaves": [self._leaf_state(leaf)
                       for leaf in self.leaves_in_order()],
        }

    @staticmethod
    def _leaf_state(leaf: BFLeaf) -> dict:
        n = leaf.nfilters
        return {
            "node_id": leaf.node_id,
            "min_pid": leaf.min_pid,
            "min_key": leaf.min_key,
            "max_key": leaf.max_key,
            "nkeys": leaf.nkeys,
            "pages_covered": leaf.pages_covered,
            "deleted_keys": sorted(leaf.deleted_keys),
            "extra_inserts": leaf.extra_inserts,
            "spill_back_pages": leaf.spill_back_pages,
            "filter_seed": leaf.filter_seed,
            "geometry": dict(vars(leaf.geometry)),
            "counts": np.asarray(leaf.counts, dtype=np.int64),
            "page": page_to_rows(leaf.page, n),
            "counters": None if leaf.counters is None else leaf.counters[:n],
        }

    @staticmethod
    def _leaf_from_state(rec: dict) -> BFLeaf:
        counts = [int(c) for c in rec["counts"]]
        geometry = BFLeafGeometry(**rec["geometry"])
        return BFLeaf(
            node_id=int(rec["node_id"]),
            geometry=geometry,
            min_pid=int(rec["min_pid"]),
            min_key=rec["min_key"],
            max_key=rec["max_key"],
            nkeys=int(rec["nkeys"]),
            pages_covered=int(rec["pages_covered"]),
            deleted_keys=set(rec["deleted_keys"]),
            extra_inserts=int(rec["extra_inserts"]),
            spill_back_pages=int(rec["spill_back_pages"]),
            filter_seed=int(rec["filter_seed"]),
            nfilters=len(counts),
            counts=counts,
            page=page_from_rows(rec["page"], geometry.bits_per_bf),
            counters=rec["counters"],
        )

    def restore_state(self, state: dict) -> None:
        if state.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"BFTree cannot restore snapshot format "
                f"{state.get('format')!r}; expected {SNAPSHOT_FORMAT!r}"
            )
        self.config = BFTreeConfig(**state["config"])
        self.unique = bool(state["unique"])
        self.ordered = bool(state["ordered"])
        self._avg_cardinality = float(state["avg_cardinality"])
        geo = state["geometry"]
        self.geometry = None if geo is None else BFLeafGeometry(**geo)
        self.leaves = {}
        chain: list[BFLeaf] = []
        for rec in state["leaves"]:
            leaf = self._leaf_from_state(rec)
            self.leaves[leaf.node_id] = leaf
            chain.append(leaf)
        link_chain(chain)
        self.inner.load_state(state["inner"])
        maybe_check(self)

    # ==================================================================
    # point search (Algorithm 1)
    # ==================================================================
    def search(self, key) -> SearchResult:
        """Probe the tree for ``key`` and fetch matching tuples.

        Walks the internal nodes (one index read per level), reads the
        BF-leaf, probes all of its Bloom filters, then fetches the matching
        data-page runs in sorted page order — each run charged one random
        positioning plus sequential reads for its remaining pages (the
        sorted run list handed to the controller, Eq. 13).  For a unique
        index the fetch loop stops at the first match.  On partitioned
        (not fully sorted) data, neighbouring leaves whose key ranges
        also contain the key are probed too.  A batch of one through
        :meth:`search_many`.
        """
        return self.search_many([key])[0]

    def search_many(self, keys,
                    latency_sink: list[float] | None = None
                    ) -> list[SearchResult]:
        """Algorithm 1 over a whole batch of probe keys: :meth:`apply_many`
        over reads.

        Result ``j`` depends on ``keys[j]`` alone: a batch returns the
        same per-key :class:`SearchResult` and the same IOStats counters
        as one batch of one per key.

        ``latency_sink``, if given, receives one simulated per-key
        latency per probe (aligned with ``keys``): the priced charges of
        that key's descent and filter probe plus those of its data fetch
        — the vectorized filter pass charges nothing — which is the
        latency of that key probed alone.  The service layer's
        tail-latency percentiles are computed from this.
        """
        keys = as_scalars(keys)
        n = len(keys)
        return self._apply([OP_READ] * n, keys, [None] * n, latency_sink)

    def apply_many(self, ops, latency_sink: list[float] | None = None
                   ) -> list:
        """Point reads, range scans, inserts and deletes in one ordered
        call: the one-tree case of :meth:`apply_across`.

        ``ops`` are ``(OP_READ, key, None)``, ``(OP_INSERT, key, pid)``,
        ``(OP_SCAN, lo, hi)`` and ``(OP_DELETE, key, pid or None)``
        triples.  The results (one :class:`SearchResult`, ``None``,
        :class:`RangeScanResult` or :class:`DeleteOutcome` per op), the
        tree state and the IOStats counters are those of applying the
        ops one by one in order (:meth:`search`, :meth:`insert`,
        :meth:`range_scan`, :meth:`delete`); ``latency_sink`` receives
        one simulated latency per op, as that loop would bracket them.
        The chunk is planned once and walked in order:

        * every point key is routed over the flattened directory and
          hashed under its target leaf's seed in one call (none when no
          op of the pass reads filter positions, as a plain tree's
          deletes do not), and every insert is pre-tested against its
          leaf's filters in one page gather (:meth:`_plan_ops`);
        * an insert a read or scan can see — a new key, or a re-insert
          of a tombstoned key, of a key outside its leaf's key range or
          on a page past the leaf's coverage — and every delete charge
          the index store at their turn, as the per-op loop makes them,
          and a split re-plans every op not yet applied (:meth:`_walk`).
          The reads and the known duplicate re-inserts no read or scan
          can see (they change no bit, range, coverage or tombstone)
          between two such writes form one read run (:meth:`_read_run`);
        * their index charges wait in one queue per target leaf: a
          group of reads per set of neighbour leaves visited, and the
          leaf's duplicates.  No queued op changes which index pages are
          resident, and a leaf write evicts no resident page (see
          :meth:`bind`), so every op of a group pays the same charges
          (reads replayed from the routing table's path): each group is
          charged once and replayed for the rest
          (:meth:`_flush_charges`).  A leaf's queue is flushed before
          an insert into it that is not a known duplicate (the add may
          grow its filters) and before a delete from it (its queued
          duplicates discard tombstones and bump counters the delete
          reads), every queue before an insert that splits
          (a split writes internal nodes, which evicts them from a warm
          pool, and re-plans every leaf id), and every queue at chunk
          end, also when an op raises.  Groups outlive read runs: a
          chunk of duplicate re-inserts split into many read runs by
          the visible writes between them still charges each leaf's
          duplicates once per flush;
        * otherwise only charge-free work waits.  A read's filter test
          queues on its leaf, and every queue is tested in one flush
          (one :meth:`BFLeaf.match_many` gather over all of them) before
          any visible write applies (so before a re-plan) and at chunk
          end.
          Every queued read precedes the write, and a leaf that took a
          visible write had its queue flushed first, so each test sees
          exactly the bits set before its read; it keeps the match
          matrix's ``nonzero`` output and each leaf's page geometry of
          that moment.  A scan charges its leaf chain and pages at its
          turn (:meth:`_scan`), so before the next visible write, and
          queues its match count for the pass's one count;
        * after the walk, one :func:`build_page_runs` pass turns every
          flush's tests into CSR page runs (per-read offsets into
          ``(first_pid, npages)`` arrays), and the data pages of every
          read are fetched in one :meth:`_fetch_runs` pass.  Those
          charges touch only the data device and state their access
          pattern, so moving them past the chunk's index writes changes
          no counter; a read's latency is its priced descent/probe
          charges plus the :meth:`Device.read_cost` of its own pages.

        Every charge states its access pattern and devices keep no head
        position, so the order in which the walk charges changes no
        counter: it tracks only results, latencies and its queues.

        Unknown op codes and inverted scan windows raise ``ValueError``
        before anything is applied.  The triples are unpacked into
        columns once, and NumPy scalar or 0-d array keys (a scan's ``lo``
        included) are normalised to native Python values in one
        :func:`as_scalars` pass (a C-level type check when there are
        none), so every key a leaf stores (``min_key``, ``max_key``,
        ``deleted_keys``) is native; :meth:`_new_walk` normalises each
        scan window once and writes the native ``hi`` into the op.
        """
        return self.apply_across([(self, ops, latency_sink)])[0]

    @classmethod
    def apply_across(cls, requests) -> list[list]:
        """:meth:`apply_many` of many trees in one pass: one result list
        per ``(tree, ops, latency_sink)`` request, equal to one
        ``apply_many`` call per request in order — results, tree state,
        every IOStats field and every latency.

        Consecutive requests whose trees share their ``Relation`` object,
        key column, ``unique``/``ordered`` flags and leaf geometry but
        for ``max_filters`` (shards cut from one donor always do) share
        a pass; any other request starts a new one, and so does a tree
        already in the pass.  A pass routes each tree's point keys and
        scan windows in one :meth:`InnerTree.route_batch` call, then
        hashes every tree's point keys in one
        :meth:`BFLeaf.hash_rows` call and pre-tests every insert in one
        :meth:`BFLeaf.duplicate_flags` gather (:meth:`_plan_ops`).  It
        walks each tree's ops in order, exactly as :meth:`apply_many`
        describes (read runs, visible writes with their flushes, splits
        with a re-plan of that tree alone, scans charged at their turn),
        then tests every tree's chunk-end filter tests in one
        :meth:`BFLeaf.match_many` gather, fetches every read's pages
        through one :func:`build_page_runs` and one :meth:`_fetch_runs`
        call and counts every scan's matches in one
        :meth:`_count_scan_jobs` call.  Stop rules stay per read, and
        every charge lands on its own tree's stack.

        Every request's op codes and scan windows are checked before any
        tree is walked.  If a tree's walk raises, the trees walked before
        it get their filter tests and fetch, the failing tree is left as
        its own ``apply_many`` leaves it, later trees are untouched, and
        the exception propagates, marked with the failing request
        (:func:`~repro.api.protocol.failed_request`): what the per-tree
        loop leaves.
        """
        walks = []
        for tree, ops, latency_sink in requests:
            check_op_codes(ops)
            codes, keys, args = zip(*ops) if ops else ((), (), ())
            walks.append(tree._new_walk(list(codes), as_scalars(keys),
                                        list(args), latency_sink))
        start = 0
        for end in range(1, len(walks) + 1):
            if end < len(walks) and walks[end].tree._joins(
                    [walk.tree for walk in walks[start:end]]):
                continue
            try:
                cls._apply_pass(walks[start:end])
            except BaseException as exc:
                mark_failed_request(exc, start + failed_request(exc))
                raise
            start = end
        return [walk.results for walk in walks]

    def _joins(self, trees: list["BFTree"]) -> bool:
        """Whether this tree can share a pass with ``trees``: a pass
        tests every tree's filters in one gather and scans every read's
        pages in one kernel call, so the trees must hash, test, scan and
        stop alike."""
        first = trees[0]
        return (self.relation is first.relation
                and self.key_column == first.key_column
                and self.unique == first.unique
                and self.ordered == first.ordered
                and _pass_geometry(self) == _pass_geometry(first)
                and all(tree is not self for tree in trees))

    def _new_walk(self, codes: list[int], keys: list, args: list,
                  latency_sink: list[float] | None) -> "_Walk":
        """A walk over ops split into parallel lists.  Scan windows are
        normalised here, once, into native ``keys`` and ``args``; an
        inverted one raises ``ValueError`` before any tree is walked."""
        n = len(codes)
        pids = ([int(arg) if code == OP_INSERT else -1
                 for code, arg in zip(codes, args)]
                if OP_INSERT in codes else [-1] * n)
        point_keys, point_pids, scan_keys = keys, pids, []
        if OP_SCAN in codes:
            scans = [i for i in range(n) if codes[i] == OP_SCAN]
            windows = normalize_scan_windows([(keys[i], args[i])
                                              for i in scans])
            for i, (lo, hi) in zip(scans, windows):
                keys[i], args[i] = lo, hi
            scan_keys = [lo for lo, _ in windows]
            point = [i for i in range(n) if codes[i] != OP_SCAN]
            point_keys = [keys[i] for i in point]
            point_pids = [pids[i] for i in point]
        return _Walk(
            tree=self, codes=codes, keys=keys, args=args, pids=pids,
            point_keys=point_keys, point_pids=point_pids, scan_keys=scan_keys,
            results=[None] * n, latencies=[0.0] * n, sink=latency_sink,
            stack=self.stack if latency_sink is not None else None,
            stats=self._stats(),
        )

    def _apply(self, codes: list[int], keys: list, args: list,
               latency_sink: list[float] | None,
               boundaries: bool = False) -> list:
        """:meth:`apply_many` over its ops split into parallel lists
        (``boundaries``: :meth:`range_scan_many`)."""
        walk = self._new_walk(codes, keys, args, latency_sink)
        walk.boundaries = boundaries
        BFTree._apply_pass([walk])
        return walk.results

    @staticmethod
    def _apply_pass(walks: list["_Walk"]) -> None:
        """Walk every tree of one pass, then test and fetch every tree's
        reads together (see :meth:`apply_across`)."""
        tests: list[LeafMatches] = []
        tested: list[int] = []
        owner: list[int] = []
        scanned: list[RangeScanResult] = []
        jobs: tuple = ([], [], [], [], [])
        for slot, walk in enumerate(walks):
            walk.slot = slot
            walk.tests, walk.tested, walk.owner = tests, tested, owner
            walk.scanned, walk.jobs = scanned, jobs
        BFTree._plan_ops(walks)
        walked = 0
        try:
            for walk in walks:
                marks = len(tests), len(tested), len(scanned), len(jobs[0])
                try:
                    walk.tree._walk(walk)
                except BaseException as exc:
                    # The failing tree's tests and scan counts are
                    # dropped, as its own apply_many drops them.
                    del tests[marks[0]:], tested[marks[1]:], owner[marks[1]:]
                    del scanned[marks[2]:]
                    for column in jobs:
                        del column[marks[3]:]
                    mark_failed_request(exc, walk.slot)
                    raise
                walked += 1
        finally:
            if walked:
                BFTree._finish(walks[:walked])

    def _walk(self, walk: "_Walk") -> None:
        """Walk one tree's ops in order: a read run, then the insert or
        delete that ends it; an insert's split re-plans the ops left in
        place.

        A non-duplicate add sets new bits, and a counting filter's
        in-place delete may clear some, which can flip both the
        membership verdict and the trust gate of later keys in that
        filter group: the group's plan flags go stale (``dirty``) and
        its later inserts re-test live.  Queued index charges are made
        before each insert that is not a known duplicate, that leaf's
        before each delete, and every queue once at chunk end, also
        when an op raises (:meth:`_flush_charges`); the queued filter
        tests are left for the pass's chunk-end flush.
        """
        codes = walk.codes
        n = len(codes)
        stack = walk.stack
        i = j = 0   # next op; next point op (index into ``point_keys``)
        if walk.paths is None:
            if OP_INSERT in codes:
                raise LookupError(
                    "insert into an unbuilt tree; bulk_load first")
            # Empty tree: reads find nothing, deletes remove nothing;
            # scans see no leaves.  Nothing is charged.
            for k in range(n):
                if codes[k] == OP_READ:
                    walk.results[k] = SearchResult(found=False)
                elif codes[k] == OP_DELETE:
                    walk.results[k] = DeleteOutcome(removed=False)
                else:
                    walk.results[k] = RangeScanResult(
                        matches=0, pages_read=0, leaves_visited=0)
            i = n
        try:
            while i < n:
                i, j = self._read_run(walk, i, j)
                if i == n:
                    break
                # Op i is a write a read or scan can see: the reads
                # before it must not.
                self._flush_probes([walk])
                rel = j - walk.base
                leaf_id = walk.pred[rel]
                leaf = self.leaves[leaf_id]
                if codes[i] == OP_DELETE:
                    # The leaf's queued duplicates discard tombstones and
                    # bump counters: they apply before the delete.
                    self._flush_charges(walk, leaf_id)
                    start = stack.stats.mark() if stack is not None else ()
                    self._charge_descent(leaf, walk.paths[leaf_id])
                    walk.results[i] = self._delete_planned(walk, i, rel,
                                                           leaf)
                    if stack is not None:
                        walk.latencies[i] = stack.since(start)
                    i += 1
                    j += 1
                    continue
                pid = walk.pids[i]
                positions = walk.rows[rel].tolist()
                group = (leaf_id, walk.grp[rel])
                duplicate = walk.dup0[rel] and group not in walk.dirty
                if not duplicate:
                    # Pre-batch flags only say "duplicate"; a negative (or
                    # a dirtied flag) is re-tested live, since earlier
                    # keys in the batch may have set these bits.  The add
                    # may grow the leaf's filters, so its index pages; a
                    # split writes inner nodes, which evicts them from a
                    # warm pool, and re-plans every leaf id.
                    try:
                        duplicate = leaf.duplicate_prehashed(pid, positions)
                    except ValueError:
                        # pid precedes the leaf range: the add will raise
                        # after the descent charges, as the scalar does.
                        duplicate = will_split = None
                    else:
                        will_split = not duplicate and (
                            leaf.group_of(pid) >= leaf.geometry.max_filters
                            or leaf.nkeys + 1 > leaf.key_capacity)
                    self._flush_charges(walk, None if will_split else leaf_id)
                start = stack.stats.mark() if stack is not None else ()
                self._charge_descent(leaf, walk.paths[leaf_id])
                split = self._insert_into(leaf, walk.keys[i], pid,
                                          positions=positions,
                                          duplicate=duplicate)
                if not duplicate:
                    walk.dirty.add(group)
                if stack is not None:
                    walk.latencies[i] = stack.since(start)
                i += 1
                j += 1
                if split:
                    assert not walk.queue, "a split follows a full flush"
                    self._plan_ops([walk], i, j)
        finally:
            self._flush_charges(walk)

    def _delete_planned(self, walk: "_Walk", i: int, rel: int,
                        leaf: BFLeaf) -> DeleteOutcome:
        """Op ``i`` of the walk, a delete from ``leaf`` (plan row
        ``rel``), after its descent charges: :meth:`delete`'s tail."""
        key, pid = walk.keys[i], walk.args[i]
        if not leaf.covers_key(key):
            return DeleteOutcome(removed=False)
        if pid is None or self.config.filter_kind != "counting":
            return self._delete_from(leaf, key, None)
        pid = int(pid)
        outcome = self._delete_from(leaf, key, pid,
                                    positions=walk.rows[rel].tolist())
        # The decrement may have cleared bits of the group's filter.
        walk.dirty.add((leaf.node_id, leaf.group_of(pid)))
        return outcome

    @staticmethod
    def _finish(walks: list["_Walk"]) -> None:
        """Test every walk's queued reads in one flush, fetch every
        tested read's pages in one :meth:`_fetch_runs` call, count every
        scan's matches in one :meth:`_count_scan_jobs` call, and hand
        each walk its latencies."""
        BFTree._flush_probes(walks)
        first = walks[0]
        tree = first.tree
        tree._count_scan_jobs(first.scanned, *first.jobs)
        if first.tests:
            if tree.ordered:
                # Each read was tested on its one target leaf: its runs
                # are one test's, already sorted, in test order.
                ops, owner = first.tested, first.owner
                runs = build_page_runs(first.tests)
            else:
                # Neighbour leaves tested some reads too: regroup the
                # runs per read, in walk then op order.
                reads = sorted(set(zip(first.owner, first.tested)))
                read_of = {read: r for r, read in enumerate(reads)}
                runs = build_page_runs(
                    first.tests,
                    [read_of[read] for read in zip(first.owner, first.tested)])
                owner = [slot for slot, _ in reads]
                ops = [k for _, k in reads]
            fetched, fetch_latencies = tree._fetch_runs(
                [walks[slot].keys[k] for slot, k in zip(owner, ops)],
                *runs, ops, owner, [walk.tree for walk in walks])
            for slot, k, result, latency in zip(owner, ops, fetched,
                                                fetch_latencies):
                walk = walks[slot]
                walk.results[k] = result
                walk.latencies[k] += latency
        for walk in walks:
            if walk.sink is not None:
                walk.sink.extend(walk.latencies)
            if OP_INSERT in walk.codes or OP_DELETE in walk.codes:
                maybe_check(walk.tree)

    def _read_run(self, walk: "_Walk", i: int, j: int) -> tuple[int, int]:
        """Take the reads and scans from op ``i`` (point op ``j``) up to
        the next delete or insert a read can observe; return the next op
        and point op.  Charges nothing.

        A known duplicate re-insert whose key is inside its leaf's key
        range, not tombstoned, and whose page is already covered sets no
        bit, never splits and never grows the filter list: no read or
        scan can see it, so it stays in the run and joins its leaf's
        charge queue.  Each read finds its candidate leaves and queues
        its filter test on every candidate that covers the key (its plan
        row is hashed under its predicted leaf; neighbours hash at test
        time); a tested read fetches after the walk.  It joins its
        target leaf's charge queue in the group of reads that visit the
        same neighbour leaves, with the number of filters it probes.
        A scan charges at its turn (:meth:`_scan`)."""
        codes, keys, pids = walk.codes, walk.keys, walk.pids
        results, probes, queue = walk.results, walk.probes, walk.queue
        pred, dup0, grp, dirty = walk.pred, walk.dup0, walk.grp, walk.dirty
        base = walk.base
        leaves = self.leaves
        ordered = self.ordered
        neighbour_ids = self._neighbour_ids
        n = len(codes)
        while i < n:
            code = codes[i]
            if code == OP_SCAN:
                self._scan(walk, i, walk.scan_pred[i - j])
                i += 1
                continue
            rel = j - base
            leaf_id = pred[rel]
            leaf = leaves[leaf_id]
            key = keys[i]
            if code != OP_READ:
                if not (code == OP_INSERT and dup0[rel]
                        and leaf.covers_key(key)
                        and pids[i] < leaf.min_pid + leaf.pages_covered
                        and key not in leaf.deleted_keys
                        and (leaf_id, grp[rel]) not in dirty):
                    break
                queue[leaf_id].setdefault(None, []).append((i, rel))
                i += 1
                j += 1
                continue
            # The target leaf's cover test, inlined; only a partitioned
            # tree has neighbour leaves to test after it.
            min_key = leaf.min_key
            covered = min_key is not None and min_key <= key <= leaf.max_key
            if covered:
                nprobed = leaf.nfilters
                probes.setdefault(leaf_id, []).append((i, rel))
            else:
                nprobed = 0
            nbrs = () if ordered else neighbour_ids(key, leaf)
            for cid in nbrs:
                c = leaves[cid]
                if c.covers_key(key):
                    nprobed += c.nfilters
                    probes.setdefault(cid, []).append((i, None))
                    covered = True
            if not covered:
                results[i] = SearchResult(found=False)
            queue[leaf_id].setdefault(nbrs, []).append((i, nprobed))
            i += 1
            j += 1
        return i, j

    def _flush_charges(self, walk: "_Walk", leaf_id: int | None = None
                       ) -> None:
        """Make the index charges queued on leaf ``leaf_id``, or on every
        leaf, and empty those queues.

        No queued op changes which index pages are resident (see
        :meth:`bind`): a read misses without admitting, and a leaf
        write evicts no resident page.  So every read of one group pays
        the same descent, leaf and neighbour reads, wherever it sits in
        the chunk, and every known duplicate of one leaf the same
        descent, CPU and leaf write: each is charged once for real and
        replayed for the rest (:meth:`_charge_repeated`).  A read's
        latency is its group charge's price plus its own filter
        probes', counted in one sum per group.  A duplicate's latency is
        its charge's price; the duplicates' bookkeeping (add counts, a
        counting leaf's counters) applies in one
        :meth:`BFLeaf.add_duplicates` call, in any order.
        """
        queue = (walk.queue if leaf_id is None
                 else {leaf_id: walk.queue.pop(leaf_id, {})})
        leaves, paths, stats = self.leaves, walk.paths, walk.stats
        latencies = walk.latencies if walk.stack is not None else None
        keys, pids = walk.keys, walk.pids
        for lid, groups in queue.items():
            leaf, path = leaves[lid], paths[lid]
            for nbrs, ops in groups.items():
                if nbrs is None:
                    dt = self._charge_repeated(len(ops), self._charge_insert,
                                               leaf, path)
                    leaf.add_duplicates([keys[k] for k, _ in ops],
                                        [pids[k] for k, _ in ops], walk.rows,
                                        [rel for _, rel in ops])
                    if latencies is not None:
                        for k, _ in ops:
                            latencies[k] = dt
                    continue
                dt = self._charge_repeated(len(ops), self._charge_read,
                                           leaf, path, nbrs)
                if stats is not None:
                    stats.bloom_probes += sum([nf for _, nf in ops])
                if latencies is not None:
                    for k, nf in ops:
                        latencies[k] = dt + nf * CPU_BLOOM_PROBE
        queue.clear()

    def _charge_read(self, leaf: BFLeaf, path: list[int],
                     neighbours: tuple[int, ...]) -> None:
        """One point read's index charges: the descent to ``leaf``, then
        one read per neighbour leaf it visits."""
        self._charge_descent(leaf, path)
        self._read_neighbours(neighbours)

    def _charge_insert(self, leaf: BFLeaf, path: list[int]) -> None:
        """One known duplicate re-insert's index charges: the descent to
        ``leaf``, the filter add's CPU and the leaf write."""
        self._charge_descent(leaf, path)
        self._count("bloom_inserts")
        self.store.write(leaf.node_id)

    @staticmethod
    def _flush_probes(walks: list["_Walk"]) -> None:
        """Run every queued filter test of every walk, on every leaf, in
        one gather (:meth:`BFLeaf.match_many`), and queue the result for
        the pass's run build.

        A read's plan row is hashed under its target leaf; the rows of
        the neighbour leaves a partitioned tree also tests are hashed in
        one :meth:`BFLeaf.hash_rows` call.
        """
        leaves: list[BFLeaf] = []
        keys: list = []
        ops: list[int] = []
        rels: list = []
        which: list[int] = []
        owner: list[int] = []
        # (first pair, end pair, plan rows) of each walk's tests.
        segments: list[tuple[int, int, np.ndarray]] = []
        for walk in walks:
            probes = walk.probes
            if not probes:
                continue
            tree_leaves = walk.tree.leaves
            before = len(ops)
            for leaf_id, group in probes.items():
                which += [len(leaves)] * len(group)
                leaves.append(tree_leaves[leaf_id])
                ops += [i for i, _ in group]
                rels += [rel for _, rel in group]
            probes.clear()
            walk_keys = walk.keys
            keys += [walk_keys[i] for i in ops[before:]]
            owner += [walk.slot] * (len(ops) - before)
            segments.append((before, len(ops), walk.rows))
        if not leaves:
            return
        rows = segments[0][2]
        if None in rels:
            positions = np.empty((len(rels), rows.shape[1]),
                                 dtype=rows.dtype)
            for a, b, seg_rows in segments:
                own = [r for r in range(a, b) if rels[r] is not None]
                positions[own] = seg_rows[[rels[r] for r in own]]
            hashed = [r for r, rel in enumerate(rels) if rel is None]
            positions[hashed] = BFLeaf.hash_rows(
                [keys[r] for r in hashed], leaves, [which[r] for r in hashed])
        elif all(seg[2] is rows for seg in segments):
            # Every walk still plans from the pass's first plan.
            positions = rows[rels]
        else:
            positions = np.concatenate([seg_rows[rels[a:b]]
                                        for a, b, seg_rows in segments])
        walks[0].tests.append(BFLeaf.match_many(keys, leaves, which,
                                                positions))
        walks[0].tested.extend(ops)
        walks[0].owner.extend(owner)

    def _neighbour_ids(self, key, leaf: BFLeaf) -> tuple[int, ...]:
        """Ids of the leaves next to ``leaf`` whose key range may also
        contain ``key``, in visit order.  Charges nothing;
        :meth:`_read_neighbours` charges the visits.

        For ordered data the directory routes exactly (boundary-spanning
        keys are handled by spill-back), so only the descend target is
        probed and there are none.  For partitioned data, overlapping
        neighbour ranges are walked in both directions, at one leaf read
        each.
        """
        if self.ordered:
            return ()
        visited = []
        current = leaf
        while current.prev_leaf_id is not None:
            prev = self.leaves.get(current.prev_leaf_id)
            if prev is None or prev.max_key is None or key > prev.max_key:
                break
            visited.append(prev.node_id)
            current = prev
        current = leaf
        while current.next_leaf_id is not None:
            nxt = self.leaves.get(current.next_leaf_id)
            if nxt is None or nxt.min_key is None or key < nxt.min_key:
                break
            visited.append(nxt.node_id)
            current = nxt
        return tuple(visited)

    def _read_neighbours(self, neighbours: tuple[int, ...]) -> None:
        """Charge one leaf read per id of :meth:`_neighbour_ids`."""
        for node_id in neighbours:
            self.store.read(node_id)

    def _descend_and_read(self, key) -> BFLeaf | None:
        """Route to the leaf for ``key``; charge internal + leaf reads."""
        try:
            leaf_id, path = self.inner.route(key)
        except LookupError:
            return None
        leaf = self.leaves[leaf_id]
        self._charge_descent(leaf, path)
        return leaf

    def _fetch_runs(self, keys, offsets: list[int], first: np.ndarray,
                    npages: np.ndarray, ops: list[int], owner: list[int],
                    trees: list["BFTree"],
                    ) -> tuple[list[SearchResult], list[float]]:
        """Fetch each read's candidate page runs and scan them.

        The runs come CSR style from :func:`build_page_runs`: read ``r``
        (key ``keys[r]``, op ``ops[r]`` of its tree's chunk, which names
        the read and changes no charge) has the sorted runs
        ``offsets[r]:offsets[r + 1]`` of ``first`` and ``npages``.  Read
        ``r`` belongs to tree ``trees[owner[r]]``, whose stack its
        charges land on; the trees share this tree's relation, key
        column and ``unique``/``ordered`` flags (see
        :meth:`apply_across`).  Their page ids are expanded with
        ``repeat``/``arange``, and one
        :meth:`Relation.scan_keys` call scans every candidate page of
        every read.  The stop rules then run per read over prefix sums
        of page-level integers: a unique index stops at the first page
        with a match, and on ordered data a page that starts past the
        key ends the fetch (no later page can match).  Pages after a
        stop are not read.  Each run reached is charged like
        :meth:`Device.read_run` — one random positioning, sequential for
        the rest — so disjoint runs pay one seek each (Eq. 13), as in
        ``range_scan`` and ``_rescan_leaf``.  A run in which no page read
        matched counts those pages as false reads.  A read with no run
        (every filter rejected its key) reads nothing and costs exactly
        0.0; it skips the stop-rule arithmetic.

        Each tree with a read here is charged in aggregate (one
        :meth:`Device.read_batch`, one CPU charge for the tuples
        examined).  Returns one result and one simulated latency per
        read: the sum of that read's own charges, its page reads priced
        by its tree's :meth:`Device.read_cost`.
        """
        ends = npages.cumsum()
        starts = ends - npages
        # Page offset of each run's first page, then of the end.
        run_at = [0, *ends.tolist()]
        total = run_at[-1]
        pids = (first - starts).repeat(npages) + np.arange(total)
        key_pages = [run_at[b] - run_at[a]
                     for a, b in zip(offsets, offsets[1:])]
        scan = self.relation.scan_keys(self.key_column,
                                       np.asarray(keys).repeat(key_pages),
                                       pids, stop_early=self.ordered)
        if self.unique:
            stops = scan.matches > 0
            if self.ordered:
                stops |= scan.beyond
            stop_at = stops.nonzero()[0].tolist()
        else:
            stop_at = scan.beyond.nonzero()[0].tolist() if self.ordered else []
        stop_at.append(total)
        # Prefix sums over pages: hits and tuples examined in [a, b) are
        # hit_start[b] - hit_start[a] and examined_at[b] - examined_at[a].
        hit_start = list(accumulate(scan.matches.tolist(), initial=0))
        examined_at = list(accumulate(scan.examined.tolist(), initial=0))
        hit_tids = scan.hit_tid.tolist()
        # Prefix sum over runs of the pages of runs that match nothing:
        # a read's fully read runs count their false pages from it.
        false_at = [0]
        if total:
            idle = np.add.reduceat(scan.matches, starts) == 0
            false_at = list(accumulate((npages * idle).tolist(), initial=0))
        devices = [tree._data_device for tree in trees]
        cpu = [0.0 if tree.stack is None else CPU_TUPLE_SCAN
               for tree in trees]
        # Per tree: random pages, pages, tuples examined, false pages.
        totals = [[0, 0, 0, 0] for _ in trees]
        results: list[SearchResult] = []
        latencies: list[float] = []
        for t, a, b in zip(owner, offsets, offsets[1:]):
            if a == b:
                # No candidate page: nothing is read or charged, and
                # read_cost(0, 0) + 0 tuples' CPU is exactly 0.0.
                results.append(SearchResult(found=False))
                latencies.append(0.0)
                continue
            page0, end = run_at[a], run_at[b]
            # Pages are read up to and including the first stop.
            stop = stop_at[bisect_left(stop_at, page0)]
            read_end = stop + 1 if stop < end else end
            # Runs a .. reached - 1 start before read_end.
            reached = bisect_left(run_at, read_end, a, b)
            n_random = reached - a
            false_pages = 0
            if n_random:
                last = run_at[reached - 1]
                false_pages = false_at[reached - 1] - false_at[a]
                if hit_start[read_end] == hit_start[last]:
                    false_pages += read_end - last
            n_pages = read_end - page0
            n_examined = examined_at[read_end] - examined_at[page0]
            tids = hit_tids[hit_start[page0]:hit_start[read_end]]
            results.append(SearchResult(
                found=bool(tids), matches=len(tids), pages_read=n_pages,
                false_pages=false_pages, tids=tids,
            ))
            device = devices[t]
            io_s = (device.read_cost(n_random, n_pages - n_random)
                    if device is not None else 0.0)
            latencies.append(io_s + n_examined * cpu[t])
            tally = totals[t]
            tally[0] += n_random
            tally[1] += n_pages
            tally[2] += n_examined
            tally[3] += false_pages
        for t in sorted(set(owner)):
            n_random, n_pages, n_examined, false_pages = totals[t]
            device = devices[t]
            if device is not None:
                device.read_batch(n_random, n_pages - n_random)
            stats = trees[t]._stats()
            if stats is not None:
                stats.tuples_scanned += n_examined
                stats.false_reads += false_pages
        return results, latencies

    # ==================================================================
    # updates (Algorithms 2 and 3)
    # ==================================================================
    def insert(self, key, pid: int) -> None:
        """Algorithm 3: index ``key`` as living on data page ``pid``.

        Splits the target leaf first when the insert would push it past
        key capacity.  A re-insert of an already-present ``(key, page
        group)`` pair (detected through the group filter itself) cannot
        grow ``nkeys`` — see :meth:`BFLeaf.add` — so it never triggers a
        split.
        """
        leaf = self._descend_and_read(key)
        if leaf is None:
            raise LookupError("insert into an unbuilt tree; bulk_load first")
        self._insert_into(leaf, key, pid)

    def _insert_into(self, leaf: BFLeaf, key, pid: int,
                     positions=None, duplicate: bool | None = None) -> bool:
        """Shared insert tail (after descent charges): split handling,
        the leaf add, and the CPU/write charges.

        ``positions`` are the key's filter bit positions under ``leaf``'s
        hash seed (computed here when omitted); ``duplicate`` is a known
        already-present verdict (the batch path's vectorized pre-test).
        Returns True when a split restructured the tree — the batch
        path's signal to re-plan its remaining keys.
        """
        if positions is None:
            positions = leaf.key_positions(key)
        if duplicate is None:
            duplicate = leaf.duplicate_prehashed(pid, positions)
        split = False
        if not duplicate and leaf.nkeys + 1 > leaf.key_capacity:
            left, right = self._split_leaf(leaf)
            leaf = self._route_after_split(key, left, right)
            split = True
            # The split's children hash with fresh structural seeds.
            positions = None
            duplicate = None
        try:
            if positions is not None:
                leaf.add_prehashed(key, pid, positions, duplicate=duplicate)
            else:
                leaf.add(key, pid)
        except LeafOverflow:
            left, right = self._split_leaf(leaf)
            target = self._route_after_split(key, left, right)
            self._leaf_add_unchecked(target, key, pid)
            leaf = target
            split = True
        self._count("bloom_inserts")
        self.store.write(leaf.node_id)
        return split

    def insert_many(self, keys, pids,
                    latency_sink: list[float] | None = None) -> None:
        """Vectorized Algorithm 3 over a whole batch of inserts:
        :meth:`apply_many` over inserts.

        Leaves the tree in exactly the state ``[self.insert(k, p) for
        k, p in zip(keys, pids)]`` would — the same leaf structure and
        filter bitsets (splits included, at the same points), the same
        ``nkeys``/tombstone bookkeeping and the same IOStats counters.
        Each plan routes and hashes the remaining keys in one pass
        and pre-tests them all against their leaves' filter pages in one
        gather (:meth:`BFLeaf.duplicate_flags`); re-inserts
        of already-present keys on covered pages — the steady state of a
        mixed workload — queue per leaf and flush as one chunk that
        charges the first key normally, then replays the identical
        charges arithmetically for the rest.

        ``latency_sink``, if given, receives one simulated per-op latency
        per insert, exactly as the scalar loop would have bracketed them.
        """
        keys = as_scalars(keys)
        pids = list(pids)
        if len(keys) != len(pids):
            raise ValueError("keys and pids must have the same length")
        self._apply([OP_INSERT] * len(keys), keys, pids, latency_sink)

    @staticmethod
    def _plan_ops(walks: list["_Walk"], i: int = 0, j: int = 0) -> None:
        """Plan each walk's ops from op ``i`` (point op ``j``) on: route
        its point keys ``point_keys[j:]`` and its scans' ``lo``
        (``scan_pred``) in one call per tree, then hash every walk's
        point keys in one call, and write the plan into the walk.

        A walk's ``point_pids`` are the inserts' data pages, -1 for reads
        and deletes (no group, no duplicate flag); whether an insert is
        left is read from the op codes, since an insert's pid may itself
        be negative (the walk then raises as the scalar insert does).
        Point op ``j`` of a walk is row ``j - base`` of the per-key
        columns, which every walk of the call shares: predicted leaf id
        (``pred``), a matrix of filter positions (``rows``, None when no
        key is left or no op left reads positions: reads, inserts and a
        counting tree's deletes do, a plain tree's deletes do not),
        pre-batch duplicate flags (``dup0``: membership
        *and* the filter-trust gate, both monotone under adds; one
        :meth:`BFLeaf.duplicate_flags` gather for every insert of every
        walk) and filter group (``grp``, -1 when the pid precedes the
        leaf range); the last two are None when no walk has an insert
        left.  ``paths`` are the walk's tree's descent paths per leaf
        id, None when the tree is empty.  No I/O is charged here: the
        walk replays each key's descent charges itself.  A plan is valid
        until the walk's next split; a flag for a group later written by
        a non-duplicate add or an in-place delete is invalidated by the
        walk's ``dirty`` set, which starts empty.
        """
        planned: list["_Walk"] = []
        arrays: list[np.ndarray] = []
        pids: list[int] = []
        pred: list[int] = []
        which: list[int] = []
        touched: list[BFLeaf] = []
        inserting = hashing = False
        for walk in walks:
            tree = walk.tree
            try:
                walk.paths = tree.inner.routing_table().paths
            except LookupError:
                walk.paths = None
                continue
            planned.append(walk)
            walk.base = j - len(pred)
            walk.dirty = set()
            left = walk.codes[i:]
            inserting = inserting or OP_INSERT in left
            hashing = hashing or inserting or OP_READ in left or (
                OP_DELETE in left and tree.config.filter_kind == "counting")
            sub = walk.point_keys[j:]
            los = walk.scan_keys[i - j:]
            if not sub and not los:
                continue
            arr = np.asarray(sub)
            leaf_ids = tree.inner.route_batch(sub + los if los else arr)
            # Scans route with the point keys but are never hashed.
            walk.scan_pred[i - j:] = leaf_ids[len(sub):]
            del leaf_ids[len(sub):]
            if not sub:
                continue
            # Each key is hashed under its target leaf's seed.
            slot_of = {}
            for leaf_id in dict.fromkeys(leaf_ids):
                slot_of[leaf_id] = len(touched)
                touched.append(tree.leaves[leaf_id])
            which += [slot_of[leaf_id] for leaf_id in leaf_ids]
            pred += leaf_ids
            arrays.append(arr)
            pids += walk.point_pids[j:]
        rows = dup0 = grp = None
        if arrays and hashing:
            slots = np.asarray(which)
            keys = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            rows = BFLeaf.hash_rows(keys, touched, slots)
            if inserting:
                # Only inserts get groups and flags: a read's or
                # delete's pid is -1, and an insert's negative pid
                # precedes every leaf's range.  All leaves of a pass
                # share pages_per_bf.
                pids_arr = np.asarray(pids, dtype=np.int64)
                min_pid = np.fromiter((leaf.min_pid for leaf in touched),
                                      dtype=np.int64,
                                      count=len(touched))[slots]
                nfilters = np.fromiter((leaf.nfilters for leaf in touched),
                                       dtype=np.int64,
                                       count=len(touched))[slots]
                in_range = pids_arr >= min_pid
                groups = np.where(
                    in_range,
                    (pids_arr - min_pid) // touched[0].geometry.pages_per_bf,
                    -1,
                )
                flags = np.zeros(len(pred), dtype=bool)
                valid = (in_range & (groups < nfilters)).nonzero()[0]
                if len(valid):
                    flags[valid] = BFLeaf.duplicate_flags(
                        touched, slots[valid], groups[valid], rows[valid])
                dup0, grp = flags.tolist(), groups.tolist()
        for walk in planned:
            walk.pred, walk.rows, walk.dup0, walk.grp = pred, rows, dup0, grp

    def _charge_descent(self, leaf: BFLeaf, path: list[int]) -> None:
        """Charge one key's descent to ``leaf`` through internal path
        ``path``: the path, then the leaf's index pages."""
        self.inner.charge_path(path)
        self.store.read(leaf.node_id)
        # Oversized leaves occupy extra index pages, read sequentially.
        extra_pages = self._leaf_index_pages(leaf) - 1
        for _ in range(extra_pages):
            self.store.read(leaf.node_id, sequential=True)

    def _charge_repeated(self, m: int, charge, *args) -> float:
        """Make ``m`` identical copies of one charge sequence.

        ``charge(*args)`` runs once through the real charging calls
        (buffer pool included); the other ``m - 1`` copies add its
        IOStats delta arithmetically.  The caller guarantees every copy
        would charge the same: nothing between them changes pool
        residency, and every charge states its access pattern.  Returns
        the priced delta of one copy (0.0 when unbound).
        """
        stack = self.stack
        if stack is None:
            charge(*args)
            return 0.0
        mark = stack.stats.mark()
        charge(*args)
        dt = stack.since(mark)
        if m > 1:
            stack.stats.add_scaled_diff(mark, m - 1)
        return dt

    @staticmethod
    def _route_after_split(key, left: BFLeaf, right: BFLeaf) -> BFLeaf:
        """The split child ``key`` belongs to (``_split_leaf`` leaves a
        live key on each side, so ``right.min_key`` is set)."""
        return right if key >= right.min_key else left

    def insert_overflow(self, key, pid: int) -> None:
        """Index beyond nominal capacity *without* splitting (paper §7).

        The leaf's effective fpp then degrades along Equation 14; used by
        the Figure 14 experiments.
        """
        leaf = self._descend_and_read(key)
        if leaf is None:
            raise LookupError("insert into an unbuilt tree; bulk_load first")
        self._leaf_add_unchecked(leaf, key, pid)
        self._count("bloom_inserts")
        self.store.write(leaf.node_id)

    def delete(self, key, pid: int | None = None) -> DeleteOutcome:
        """Delete ``key`` from the index (paper §7).

        With plain filters the key lands on the leaf's deleted list,
        which keeps the fpp from degrading the way in-place bit clearing
        would.  With ``filter_kind="counting"`` and ``pid`` given, the
        counters of the filter covering that page are decremented — a
        true in-place delete with no tombstone growth.

        A counting tree counts re-inserts of present keys: inserting a
        key its filter already holds adds to its counters (``nkeys``
        stays), so it takes one in-place delete per insert before the key
        tests absent, and only that last delete shrinks ``nkeys``.

        A counting-filter tree deleted *without* ``pid`` cannot decrement
        safely (the key's page group is unknown) and falls back to the
        tombstone list; the returned :class:`DeleteOutcome` surfaces that
        through ``tombstoned=True``, so Figure-14-style fpp accounting
        can tell the two §7 delete mechanisms apart instead of silently
        mixing them.  The outcome is truthy iff the key was removed.
        """
        leaf = self._descend_and_read(key)
        if leaf is None or not leaf.covers_key(key):
            return DeleteOutcome(removed=False)
        return self._delete_from(leaf, key, pid)

    def _delete_from(self, leaf: BFLeaf, key, pid: int | None,
                     positions=None) -> DeleteOutcome:
        """Shared delete tail (after descent charges and the covers check)."""
        if self.config.filter_kind == "counting" and pid is not None:
            if positions is None:
                positions = leaf.key_positions(key)
            outcome = DeleteOutcome(
                removed=leaf.remove_key_prehashed(pid, positions),
                tombstoned=False,
            )
        else:
            leaf.mark_deleted(key)
            outcome = DeleteOutcome(removed=True, tombstoned=True)
        self.store.write(leaf.node_id)
        return outcome

    def _split_leaf(self, leaf: BFLeaf) -> tuple[BFLeaf, BFLeaf]:
        """Algorithm 2: split ``leaf`` into two, rebuilding its filters.

        The paper enumerates the key domain and probes the old filters; we
        re-scan the leaf's (small) page range instead — the recomputation
        §3 explicitly calls feasible — which yields the exact key/page
        pairs at the cost of one sequential run over the covered pages.
        The split point is the median distinct *live* key: tombstoned
        keys are dropped before the split point is chosen, so a leaf
        whose keys are half-deleted can never produce a side with no live
        keys (``min_key is None``), which would crash subsequent insert
        routing.  Page coverage is still partitioned over *all* scanned
        pairs, so a tombstoned key that is later re-inserted at its
        original data page still lands inside its leaf's page range.
        """
        pairs = self._rescan_leaf(leaf)
        live = [(k, p) for k, p in pairs if k not in leaf.deleted_keys]
        distinct = sorted({key for key, _ in live})
        if len(distinct) < 2:
            raise ValueError(
                "cannot split a leaf holding fewer than two live keys"
            )
        mid = distinct[len(distinct) // 2]
        left_pid = min(p for k, p in pairs if k < mid)
        right_pid = min(p for k, p in pairs if k >= mid)
        # Structural filter seeds: a split's children hash with seeds
        # derived from their covered pages (plus a side bit for the rare
        # straddling-page split), not from freshly allocated node ids —
        # so a shard replaying the same inserts rebuilds bit-identical
        # filters even though its store allocates different ids.
        left = self._new_leaf(min_pid=left_pid, filter_seed=left_pid << 1)
        right = self._new_leaf(min_pid=right_pid,
                               filter_seed=(right_pid << 1) | 1)
        for key, pid in live:
            target = right if key >= mid else left
            self._leaf_add_unchecked(target, key, pid)
        left.deleted_keys = {k for k in leaf.deleted_keys if k < mid}
        right.deleted_keys = {k for k in leaf.deleted_keys if k >= mid}
        self._relink(leaf, left, right)
        self.inner.split_child(leaf.node_id, mid, right.node_id,
                               left=left.node_id)
        self.store.write(left.node_id)
        self.store.write(right.node_id)
        return left, right

    def _rescan_leaf(self, leaf: BFLeaf) -> list[tuple[object, int]]:
        """Distinct (key, pid) pairs of the leaf's key range in its page
        range (charged I/O).

        An earlier split whose median was not page-aligned leaves a page
        shared with a neighbour leaf; that page's keys outside
        ``[min_key, max_key]`` belong to the neighbour and are skipped,
        so a re-split never pulls them in and leaf key ranges never
        overlap.
        """
        pairs: list[tuple[object, int]] = []
        device = self._data_device
        if device is not None and leaf.pages_covered > 0:
            device.read_run(leaf.min_pid, leaf.pages_covered)
        column = self.relation.columns[self.key_column]
        for pid in range(leaf.min_pid, leaf.min_pid + leaf.pages_covered):
            if pid >= self.relation.npages:
                break
            first, last = self.relation.page_bounds(pid)
            for key in np.unique(column[first:last]):
                key = as_scalar(key)
                if leaf.covers_key(key):
                    pairs.append((key, pid))
        return pairs

    def _relink(self, old: BFLeaf, left: BFLeaf, right: BFLeaf) -> None:
        left.prev_leaf_id = old.prev_leaf_id
        left.next_leaf_id = right.node_id
        right.prev_leaf_id = left.node_id
        right.next_leaf_id = old.next_leaf_id
        if old.next_leaf_id is not None:
            nxt = self.leaves.get(old.next_leaf_id)
            if nxt is not None:
                nxt.prev_leaf_id = right.node_id
        for other in self.leaves.values():
            if other.next_leaf_id == old.node_id and other is not left:
                other.next_leaf_id = left.node_id
        del self.leaves[old.node_id]

    # ==================================================================
    # range scans (paper §7)
    # ==================================================================
    def range_scan(self, lo, hi, enumerate_boundaries: bool = False
                   ) -> RangeScanResult:
        """Scan all tuples with key in [lo, hi].

        Middle partitions (leaves entirely inside the range) are read in
        full — every page is useful.  Boundary partitions are read in full
        too, which is the read overhead Figure 13 quantifies; with
        ``enumerate_boundaries`` the §7 optimization probes the boundary
        leaf's filters for each integer value in the overlapping key range
        and fetches only matching pages (practical only for small integer
        domains).

        I/O charging follows Eq. 13 across the *whole* scan: the leaf
        chain is read with one random positioning then sequentially
        (matching ``BPlusTree.range_scan``), and data pages pay one
        random positioning per disjoint page run — consecutive leaves
        whose page runs are disk-contiguous ride the same sequential
        stream instead of paying a seek per leaf.

        A batch of one through :meth:`range_scan_many`; ``lo > hi``
        raises ``ValueError``.
        """
        return self.range_scan_many([(lo, hi)], enumerate_boundaries)[0]

    def range_scan_many(self, windows, enumerate_boundaries: bool = False,
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]:
        """§7 range scans over a batch of ``(lo, hi)`` windows:
        :meth:`apply_many` over scans.

        Result ``j`` depends on ``windows[j]`` alone: a batch returns the
        same per-scan :class:`RangeScanResult` and the same IOStats
        counters as one batch of one per window.  Every window's ``lo``
        is routed in the plan's one :meth:`InnerTree.route_batch` call,
        each scan charges at its turn (:meth:`_scan`) and every match
        count waits for the pass's one :meth:`_count_scan_jobs` call.
        ``latency_sink`` receives one simulated latency per window.
        Invalid windows (``lo > hi``) raise ``ValueError`` before any
        charge lands.

        ``enumerate_boundaries`` (§7) makes each boundary leaf probe its
        filters for every integer value of the window it overlaps, one
        :meth:`BFLeaf.matching_page_runs_many` call per boundary leaf,
        and read only the matching pages (:meth:`_leaf_scan_runs`).  It
        is a flag of scan-only walks: no serving path sets it, and
        hashing its values in the plan's one :meth:`BFLeaf.hash_rows`
        call would make the plan hash keys that are not ops.
        """
        pairs = list(windows)
        n = len(pairs)
        return self._apply([OP_SCAN] * n, [lo for lo, _ in pairs],
                           [hi for _, hi in pairs], latency_sink,
                           enumerate_boundaries)

    def _scan(self, walk: "_Walk", i: int, leaf_id: int) -> None:
        """Op ``i`` of the walk, a scan whose ``lo`` routes to leaf
        ``leaf_id``: the walk's one scan step, charged at its turn as
        :meth:`range_scan` describes (each leaf's page runs in one
        :meth:`Device.read_batch`), its latency the price of those
        charges.  Its match count waits for the pass: one job per page
        run, the window clamped to the reading leaf's key range, so a
        page two adjacent leaves share (after a split whose median was
        not page-aligned) counts each tuple once.
        """
        lo, hi = walk.keys[i], walk.args[i]
        stack = walk.stack
        start = stack.stats.mark() if stack is not None else ()
        res = walk.results[i] = RangeScanResult(
            matches=0, pages_read=0, leaves_visited=0)
        scan = len(walk.scanned)
        walk.scanned.append(res)
        jobs_scan, jobs_first, jobs_count, jobs_lo, jobs_hi = walk.jobs
        leaves = self.leaves
        device = self._data_device
        self.inner.charge_path(walk.paths[leaf_id])
        current: BFLeaf | None = leaves[leaf_id]
        if not self.ordered:
            while current.prev_leaf_id is not None:
                prev = leaves.get(current.prev_leaf_id)
                if prev is None or prev.max_key is None or prev.max_key < lo:
                    break
                current = prev
        prev_pid: int | None = None
        while current is not None:
            if current.min_key is not None and current.min_key > hi:
                break
            self.store.read(current.node_id,
                            sequential=res.leaves_visited > 0)
            res.leaves_visited += 1
            runs = self._leaf_scan_runs(current, lo, hi, walk.boundaries)
            if runs:
                n_random, n_seq, prev_pid = classify_read_runs(runs,
                                                               prev_pid)
                if device is not None:
                    device.read_batch(n_random, n_seq)
                res.pages_read += n_random + n_seq
                key_lo = max(lo, current.min_key)
                key_hi = min(hi, current.max_key)
                for first, npages in runs:
                    jobs_scan.append(scan)
                    jobs_first.append(first)
                    jobs_count.append(npages)
                    jobs_lo.append(key_lo)
                    jobs_hi.append(key_hi)
            current = leaves.get(current.next_leaf_id)
        if stack is not None:
            walk.latencies[i] = stack.since(start)

    def _leaf_scan_runs(self, leaf: BFLeaf, lo, hi,
                        enumerate_boundaries: bool
                        ) -> list[tuple[int, int]]:
        """``(first_pid, npages)`` runs of ``leaf``'s pages a scan of
        ``[lo, hi]`` reads.

        An interior leaf (or any leaf without ``enumerate_boundaries``)
        is read in full.  A boundary leaf with ``enumerate_boundaries``
        probes its filters for every integer value in the overlapping key
        range (the §7 optimization) and reads only matching pages; the
        per-value probe charges land as one IOStats bump.  Non-integer
        or very wide domains fall back to a full read.
        """
        if leaf.min_key is None or leaf.max_key is None:
            return []
        if leaf.max_key < lo or leaf.min_key > hi:
            return []
        is_boundary = leaf.min_key < lo or leaf.max_key > hi
        full = ([(leaf.min_pid, leaf.pages_covered)]
                if leaf.pages_covered > 0 else [])
        if not is_boundary or not enumerate_boundaries:
            return full
        start = max(lo, leaf.min_key)
        stop = min(hi, leaf.max_key)
        if not isinstance(start, (int, np.integer)) or stop - start > 100_000:
            return full  # impractical domain; fall back to full read
        values = list(range(int(start), int(stop) + 1))
        stats = self._stats()
        if stats is not None:
            stats.bloom_probes += leaf.nfilters * len(values)
        wanted: set[int] = set()
        for runs in leaf.matching_page_runs_many(values):
            for first, npages in runs:
                wanted.update(range(first, first + npages))
        out: list[tuple[int, int]] = []
        for pid in sorted(wanted):
            if out and out[-1][0] + out[-1][1] == pid:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((pid, 1))
        return out

    def _count_scan_jobs(self, results, jobs_scan, jobs_first, jobs_count,
                         jobs_lo, jobs_hi) -> None:
        """Count every scan's matches of a pass (:meth:`_scan`): job
        ``r`` adds to ``results[jobs_scan[r]]``; the pass's trees share
        what is read here.

        Ordered data: one global ``searchsorted`` pair over the sorted
        column resolves every job's count arithmetically.  Partitioned
        data: jobs are grouped by page and all scans covering a page are
        counted in one vectorized pass over that page's column.  Both
        count, per job, the tuples with key in the job's ``[lo, hi]``
        (the window clamped to the reading leaf's key range) on the
        job's pages.
        """
        if not jobs_scan:
            return
        rel = self.relation
        tpp = rel.tuples_per_page
        matches = np.zeros(len(results), dtype=np.int64)
        scan_arr = np.asarray(jobs_scan, dtype=np.int64)
        first_arr = np.asarray(jobs_first, dtype=np.int64)
        count_arr = np.asarray(jobs_count, dtype=np.int64)
        if self.ordered:
            col = np.asarray(rel.columns[self.key_column])
            lo_idx = np.searchsorted(col, np.asarray(jobs_lo), side="left")
            hi_idx = np.searchsorted(col, np.asarray(jobs_hi), side="right")
            start_tid = first_arr * tpp
            end_tid = np.minimum((first_arr + count_arr) * tpp, rel.ntuples)
            counts = np.maximum(
                0,
                np.minimum(hi_idx, end_tid) - np.maximum(lo_idx, start_tid),
            )
            np.add.at(matches, scan_arr, counts)
        else:
            by_pid: dict[int, list[int]] = {}
            for row in range(len(scan_arr)):
                first = int(first_arr[row])
                for pid in range(first, first + int(count_arr[row])):
                    if pid < rel.npages:
                        by_pid.setdefault(pid, []).append(row)
            col = rel.columns[self.key_column]
            for pid, rows in by_pid.items():
                first, last = rel.page_bounds(pid)
                v = col[first:last]
                lo_arr = np.asarray([jobs_lo[r] for r in rows])
                hi_arr = np.asarray([jobs_hi[r] for r in rows])
                counts = (
                    (v >= lo_arr[:, None]) & (v <= hi_arr[:, None])
                ).sum(axis=1)
                np.add.at(matches, scan_arr[rows], counts)
        for j, res in enumerate(results):
            res.matches += int(matches[j])

    # ==================================================================
    # index intersection (paper §8)
    # ==================================================================
    def intersect_probe(self, other: "BFTree", key_self, key_other
                        ) -> SearchResult:
        """Probe two BF-Trees over the same relation and intersect pages.

        The combined false-positive probability is the product of the two
        trees' fpps (paper §8), so only pages matching in *both* indexes
        are fetched.
        """
        if other.relation is not self.relation:
            raise ValueError("intersection requires indexes on one relation")
        pages_a = self._candidate_pages(key_self)
        pages_b = other._candidate_pages(key_other)
        candidates = sorted(pages_a & pages_b)
        result = SearchResult(found=False)
        device = self._data_device
        for i, pid in enumerate(candidates):
            if device is not None:
                device.read_page(pid, sequential=i > 0)
            result.pages_read += 1
            first, last = self.relation.page_bounds(pid)
            columns = self.relation.columns
            mask = (columns[self.key_column][first:last] == key_self) & (
                columns[other.key_column][first:last] == key_other
            )
            hits = int(np.count_nonzero(mask))
            if hits == 0:
                result.false_pages += 1
                stats = self._stats()
                if stats is not None:
                    stats.false_reads += 1
            result.matches += hits
        result.found = result.matches > 0
        return result

    def _candidate_pages(self, key) -> set[int]:
        """All data pages this tree's filters nominate for ``key``."""
        leaf = self._descend_and_read(key)
        pages: set[int] = set()
        if leaf is None:
            return pages
        stats = self._stats()
        neighbours = self._neighbour_ids(key, leaf)
        self._read_neighbours(neighbours)
        for candidate in [leaf, *(self.leaves[nid] for nid in neighbours)]:
            if not candidate.covers_key(key):
                continue
            if stats is not None:
                stats.bloom_probes += candidate.nfilters
            for first, npages in candidate.matching_page_runs_many([key])[0]:
                pages.update(range(first, first + npages))
        return pages

    # ==================================================================
    # size accounting
    # ==================================================================
    def _leaf_index_pages(self, leaf: BFLeaf) -> int:
        """Index pages one leaf occupies (1 unless a key overflowed it)."""
        assert self.geometry is not None
        base = self.geometry.max_filters
        return max(1, -(-leaf.nfilters // base))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def size_pages(self) -> int:
        """Total index pages: leaves (with overflow) + internal nodes."""
        leaf_pages = sum(self._leaf_index_pages(l) for l in self.leaves.values())
        return leaf_pages + self.inner.n_internal_nodes

    @property
    def size_bytes(self) -> int:
        return self.size_pages * self.config.page_size

    @property
    def height(self) -> int:
        """Levels including the leaf level (Eq. 7 semantics)."""
        return self.inner.height

    def effective_fpp(self) -> float:
        """Size-weighted effective fpp across leaves (degrades per Eq. 14)."""
        total = sum(l.nkeys for l in self.leaves.values())
        if total == 0:
            return 0.0
        return sum(l.effective_fpp() * l.nkeys for l in self.leaves.values()) / total

    def leaves_in_order(self) -> list[BFLeaf]:
        """Leaves left-to-right following next pointers."""
        return ordered_chain(self.leaves, lambda l: l.min_pid)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BFTree(column={self.key_column!r}, fpp={self.config.fpp}, "
            f"leaves={self.n_leaves}, height={self.height}, "
            f"pages={self.size_pages})"
        )
