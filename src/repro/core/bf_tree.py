"""BF-Tree: the paper's approximate tree index (Section 4).

A :class:`BFTree` keeps B+-Tree-style internal nodes (shared machinery in
:mod:`repro.core.node`) over Bloom-filter leaves
(:class:`~repro.core.bf_leaf.BFLeaf`).  It indexes a
:class:`~repro.storage.relation.Relation` whose tuples are *ordered or
partitioned* on the indexed attribute — the implicit-clustering assumption
of §1.1.

Algorithms implemented, with their paper counterparts:

* :meth:`BFTree.search`      — Algorithm 1 (probe all BFs of the leaf,
  fetch matching pages sorted, stop early for unique keys).
* :meth:`BFTree.search_many` — vectorized Algorithm 1 over a probe batch:
  identical results and I/O charging to per-key ``search`` calls, with
  the whole batch hashed in one call and the Bloom-filter tests
  collapsed into one page gather per touched leaf.  The harness's
  ``run_probes(..., batch=True)`` and the CLI's ``probe --batch`` run
  on it.
* :meth:`BFTree.insert`      — Algorithm 3 (extend key range, bump #keys,
  add to the per-page BF; split when over capacity).
* :meth:`BFTree.insert_many` / :meth:`BFTree.delete_many` — vectorized
  Algorithm 3 over a write batch: identical tree state, filter bitsets
  and I/O charging to the scalar loop (splits included, handled by
  re-planning the affected sub-batch), with the batch routed and hashed
  in one pass per plan round.  The Router's write batching
  and ``serve-bench``'s batch write mode run on it.
* :meth:`BFTree._split_leaf` — Algorithm 2 (rebuild two leaves; we rebuild
  by re-scanning the leaf's small page range, the recomputation that §3
  argues is feasible precisely because leaf ranges are small).
* :meth:`BFTree.bulk_load`   — §4.2 bulk loading (one pass over the data,
  one pass building the directory over the leaves).
* :meth:`BFTree.range_scan`  — §7 range scans with optional
  boundary-partition enumeration.
* :meth:`BFTree.range_scan_many` — vectorized §7 range scans over a
  batch of windows: identical per-scan results and I/O charging to the
  scalar loop, with window routing done in one pass over the flattened
  directory, page runs charged in aggregate (Eq. 13 split preserved)
  and match counting collapsed into NumPy passes.  The Router's scan
  batching and ``serve-bench``'s batch scan mode run on it.
* :meth:`BFTree.intersect_probe` — §8 index intersection.

Storage binding: the tree's structure is device-independent.  Before
measuring, call :meth:`bind` with a :class:`~repro.storage.config.
StorageStack`; internal/leaf node accesses then charge the index device
(optionally through a warm buffer pool) and data-page fetches charge the
data device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from repro.api.protocol import Capabilities, IndexBackend
from repro.analysis.sanitize import maybe_check
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    normalize_scan_windows,
)
from repro.core.bf_leaf import (
    LEAF_HEADER_BYTES,
    BFLeaf,
    BFLeafGeometry,
    LeafOverflow,
)
from repro.core.node import InnerTree, NodeStore, fanout_for, route_batch
from repro.storage.buffer_pool import BufferPool
from repro.storage.clock import CPU_BLOOM_INSERT, CPU_BLOOM_PROBE, CPU_KEY_COMPARE
from repro.storage.config import StorageStack
from repro.storage.device import PAGE_SIZE, Device, classify_read_runs
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


# Canonical result types live in the protocol layer (repro.api.results);
# re-exported here because this was their historical home and the whole
# codebase imports them from repro.core.bf_tree.
__all__ = [
    "BFTree", "BFTreeConfig", "SearchResult", "RangeScanResult",
    "DeleteOutcome", "normalize_scan_windows",
    "SKEW_GUARD_FPP", "FALSE_PAGE_BUDGET",
]


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
        self._data_device: Device | None = None
        self._index_pool: BufferPool | None = None
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
            # Pin the filter hash seed before the node id changes hands:
            # existing filters carry the donor's seed, and any filter the
            # leaf grows later must hash identically (the vectorized
            # probe path hashes each key batch once per leaf).
            if leaf.filter_seed is None:
                leaf.filter_seed = (
                    leaf.filters[0].seed if leaf.filters else leaf.node_id
                )
            leaf.node_id = tree.store.allocate()
            tree.leaves[leaf.node_id] = leaf
        for prev, nxt in zip(leaves, leaves[1:]):
            prev.next_leaf_id = nxt.node_id
            nxt.prev_leaf_id = prev.node_id
        leaves[0].prev_leaf_id = None
        leaves[-1].next_leaf_id = None
        tree._leaf_order = [leaf.node_id for leaf in leaves]
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
        # holds a filter for every group of its budget (BFLeaf.is_full);
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
        """Attach the tree to a storage stack before measuring.

        ``warm=True`` models the paper's warm-cache mode: all internal
        nodes are memory-resident, so only the leaf access (and data pages)
        cost device I/O.
        """
        self.store.device = stack.index_device
        self._data_device = stack.data_device
        if warm:
            # Paper warm-cache semantics: internal nodes resident, leaf
            # accesses still cause I/O - so misses are never admitted.
            pool = BufferPool(stack.index_device, capacity_pages=None,
                              admit_on_miss=False)
            pool.prefault(self.inner.internal_node_ids())
            self._index_pool = pool
        else:
            self._index_pool = None
        self.store.pool = self._index_pool

    def unbind(self) -> None:
        """Detach from any storage stack (accesses become free)."""
        self.store.device = None
        self.store.pool = None
        self._data_device = None
        self._index_pool = None

    def _clock(self):
        if self.store.device is not None:
            return self.store.device.clock
        return None

    def _charge_cpu(self, seconds: float) -> None:
        clock = self._clock()
        if clock is not None:
            clock.advance(seconds)

    def _stats(self):
        if self.store.device is not None:
            return self.store.device.stats
        return None

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

    def _sim_clock(self):
        return self._clock()

    supports_sharding = True

    def shard_leaves(self) -> list:
        """Leaf chain in key order, ready for ShardedIndex slicing."""
        if not self.ordered:
            raise ValueError(
                "ShardedIndex requires an ordered column (partitioned "
                "data would probe neighbour leaves across shard borders)"
            )
        return [self.leaves[lid] for lid in self._leaf_order]

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
        """Full structural dump: directory, leaf chain, filter bitsets.

        Node ids, chain pointers and the allocator cursor are captured
        verbatim so a restored tree is *bit-identical* to the original —
        same descent paths, same filter bit patterns (and therefore the
        same false positives), same simulated I/O charges.  Filter seeds
        ride along per leaf, exactly as in the sharding path.
        """
        return {
            "format": "bf-tree",
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
    def _filters_state(filters) -> dict:
        """Columnar dump of a leaf's per-group filters.

        A leaf holds one filter per page group — hundreds for a large
        leaf — so per-filter JSON dicts would dwarf the actual bit
        arrays.  Instead the metadata rides in packed arrays and every
        bit/counter payload is concatenated into one blob per kind,
        keeping the checkpoint close to the information-theoretic size
        the paper's Table 2 space story depends on.
        """
        from repro.core.variants import CountingBloomFilter

        n = len(filters)
        kinds = np.zeros(n, dtype=np.uint8)  # 0 = plain, 1 = counting
        nbits = np.zeros(n, dtype=np.int32)
        ks = np.zeros(n, dtype=np.int16)
        seeds = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int32)
        counter_bits = np.zeros(n, dtype=np.uint8)
        word_parts: list[np.ndarray] = []
        counter_parts: list[bytes] = []
        for i, f in enumerate(filters):
            nbits[i], ks[i], seeds[i] = f.nbits, f.k, f.seed
            counts[i] = f.count
            if isinstance(f, CountingBloomFilter):
                kinds[i] = 1
                counter_bits[i] = f.counter_bits
                counter_parts.append(bytes(f._counters))
            else:
                word_parts.append(np.asarray(f._words, dtype=np.uint64))
        return {
            "n": n,
            "kinds": kinds,
            "nbits": nbits,
            "k": ks,
            "seed": seeds,
            "count": counts,
            "counter_bits": counter_bits,
            "words": (np.concatenate(word_parts) if word_parts
                      else np.zeros(0, dtype=np.uint64)),
            "counters": b"".join(counter_parts),
        }

    def _leaf_state(self, leaf: BFLeaf) -> dict:
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
            "filters": self._filters_state(leaf.filters),
        }

    @staticmethod
    def _filters_from_state(rec: dict) -> list:
        from repro.core.bloom import BloomFilter
        from repro.core.variants import CountingBloomFilter

        kinds = np.asarray(rec["kinds"], dtype=np.uint8)
        nbits = np.asarray(rec["nbits"], dtype=np.int64)
        ks = np.asarray(rec["k"], dtype=np.int64)
        seeds = np.asarray(rec["seed"], dtype=np.int64)
        counts = np.asarray(rec["count"], dtype=np.int64)
        counter_bits = np.asarray(rec["counter_bits"], dtype=np.int64)
        words = np.asarray(rec["words"], dtype=np.uint64)
        counters = rec["counters"]
        filters = []
        w_off = c_off = 0
        for i in range(int(rec["n"])):
            if kinds[i]:
                cf = CountingBloomFilter(
                    int(nbits[i]), int(ks[i]), int(seeds[i]),
                    counter_bits=int(counter_bits[i]),
                )
                span = len(cf._counters)
                cf._counters = bytearray(counters[c_off:c_off + span])
                c_off += span
                cf.count = int(counts[i])
                filters.append(cf)
            else:
                bf = BloomFilter(int(nbits[i]), int(ks[i]), int(seeds[i]))
                span = len(bf._words)
                bf._words = words[w_off:w_off + span].copy()
                w_off += span
                bf.count = int(counts[i])
                filters.append(bf)
        return filters

    @staticmethod
    def _leaf_from_state(rec: dict) -> BFLeaf:
        seed = rec["filter_seed"]
        return BFLeaf(
            node_id=int(rec["node_id"]),
            geometry=BFLeafGeometry(**rec["geometry"]),
            min_pid=int(rec["min_pid"]),
            min_key=rec["min_key"],
            max_key=rec["max_key"],
            nkeys=int(rec["nkeys"]),
            filters=BFTree._filters_from_state(rec["filters"]),
            pages_covered=int(rec["pages_covered"]),
            deleted_keys=set(rec["deleted_keys"]),
            extra_inserts=int(rec["extra_inserts"]),
            spill_back_pages=int(rec["spill_back_pages"]),
            filter_seed=None if seed is None else int(seed),
        )

    def restore_state(self, state: dict) -> None:
        if state.get("format") != "bf-tree":
            raise ValueError(
                f"BFTree cannot restore snapshot format "
                f"{state.get('format')!r}"
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
        for prev, nxt in zip(chain, chain[1:]):
            prev.next_leaf_id = nxt.node_id
            nxt.prev_leaf_id = prev.node_id
        if chain:
            chain[0].prev_leaf_id = None
            chain[-1].next_leaf_id = None
        self._leaf_order = [leaf.node_id for leaf in chain]
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
        also contain the key are probed too.
        """
        leaf = self._descend_and_read(key)
        if leaf is None:
            return SearchResult(found=False)
        stats = self._stats()
        runs: list[tuple[int, int]] = []
        covered = False
        for candidate in self._candidate_leaves(key, leaf):
            if not candidate.covers_key(key):
                continue
            covered = True
            if stats is not None:
                stats.bloom_probes += candidate.nfilters
            self._charge_cpu(candidate.nfilters * CPU_BLOOM_PROBE)
            runs.extend(candidate.matching_page_runs(key))
        if not covered:
            return SearchResult(found=False)
        return self._fetch_runs(key, sorted(runs))

    def search_many(self, keys,
                    latency_sink: list[float] | None = None
                    ) -> list[SearchResult]:
        """Vectorized Algorithm 1 over a whole batch of probe keys.

        Returns exactly ``[self.search(k) for k in keys]`` — the same
        per-key :class:`SearchResult`, the same IOStats counters and the
        same simulated clock time (the identical set of charges, summed
        in a different order, so the float total can differ in its last
        couple of bits) — but the Bloom-filter membership
        tests, the scalar path's dominant CPU cost (one Python-level loop
        per filter per probe), collapse into NumPy passes: keys are
        routed first and grouped by candidate leaf, every (key, leaf) row
        is hashed in one call (:meth:`BFLeaf.hash_segments`), and each
        leaf tests its key group against its whole filter page at once
        (:meth:`BFLeaf.matching_page_runs_many`).  Descents, leaf reads and
        data-page fetches are charged per key just as ``search`` does.

        ``latency_sink``, if given, receives one simulated per-key
        latency per probe (aligned with ``keys``): every clock charge on
        the batch path happens inside the per-key routing loop (phase 1)
        or the per-key fetch loop (phase 3) — the vectorized filter pass
        charges nothing — so bracketing those two loop bodies recovers
        exactly the latency the scalar ``search`` would report.  The
        service layer's tail-latency percentiles are computed from this.
        """
        keys = [as_scalar(k) for k in keys]
        results: list[SearchResult | None] = [None] * len(keys)
        stats = self._stats()
        clock = self._clock()
        track = latency_sink is not None and clock is not None
        latencies = [0.0] * len(keys)
        # Phase 1: route every key, charging descent and candidate-leaf
        # I/O and the per-filter probe CPU exactly like the scalar path.
        pending: list[tuple[int, object, list[BFLeaf]]] = []
        by_leaf: dict[int, list[tuple[int, object]]] = {}
        for i, key in enumerate(keys):
            start = clock.now() if track else 0.0
            leaf = self._descend_and_read(key)
            if leaf is None:
                results[i] = SearchResult(found=False)
                if track:
                    latencies[i] = clock.now() - start
                continue
            candidates = [
                c for c in self._candidate_leaves(key, leaf)
                if c.covers_key(key)
            ]
            if not candidates:
                results[i] = SearchResult(found=False)
                if track:
                    latencies[i] = clock.now() - start
                continue
            for candidate in candidates:
                if stats is not None:
                    stats.bloom_probes += candidate.nfilters
                self._charge_cpu(candidate.nfilters * CPU_BLOOM_PROBE)
                by_leaf.setdefault(candidate.node_id, []).append((i, key))
            pending.append((i, key, candidates))
            if track:
                latencies[i] = clock.now() - start
        # Phase 2: hash every (key, leaf) row of the batch in one call,
        # then one page gather per touched leaf.
        runs_for: dict[tuple[int, int], list[tuple[int, int]]] = {}
        touched = [self.leaves[leaf_id] for leaf_id in by_leaf]
        row_keys = [key for group in by_leaf.values() for _, key in group]
        bounds = np.cumsum([0] + [len(g) for g in by_leaf.values()])
        segments = BFLeaf.hash_segments(row_keys, touched, bounds)
        for leaf, positions, (b0, b1) in zip(touched, segments,
                                             zip(bounds, bounds[1:])):
            run_lists = leaf.matching_page_runs_many(row_keys[b0:b1],
                                                     positions)
            leaf_id = leaf.node_id
            for (i, _), runs in zip(by_leaf[leaf_id], run_lists):
                runs_for[(i, leaf_id)] = runs
        # Phase 3: fetch matching pages per key (identical I/O charging,
        # including early termination for unique keys and ordered data).
        for i, key, candidates in pending:
            runs: list[tuple[int, int]] = []
            for candidate in candidates:
                runs.extend(runs_for[(i, candidate.node_id)])
            start = clock.now() if track else 0.0
            results[i] = self._fetch_runs(key, sorted(runs))
            if track:
                latencies[i] += clock.now() - start
        if latency_sink is not None:
            latency_sink.extend(latencies)
        return results

    def _candidate_leaves(self, key, leaf: BFLeaf) -> list[BFLeaf]:
        """Leaves whose key range may contain ``key``.

        For ordered data the directory routes exactly (boundary-spanning
        keys are handled by spill-back), so only the descend target is
        probed.  For partitioned data, overlapping neighbour ranges are
        walked in both directions, one leaf read each.
        """
        if self.ordered:
            return [leaf]
        candidates = [leaf]
        current = leaf
        while current.prev_leaf_id is not None:
            prev = self.leaves.get(current.prev_leaf_id)
            if prev is None or prev.max_key is None or key > prev.max_key:
                break
            self.store.read(prev.node_id)
            candidates.insert(0, prev)
            current = prev
        current = leaf
        while current.next_leaf_id is not None:
            nxt = self.leaves.get(current.next_leaf_id)
            if nxt is None or nxt.min_key is None or key < nxt.min_key:
                break
            self.store.read(nxt.node_id)
            candidates.append(nxt)
            current = nxt
        return candidates

    def _descend_and_read(self, key) -> BFLeaf | None:
        """Route to the leaf for ``key``; charge internal + leaf reads."""
        try:
            leaf_id, path = self.inner.descend(key)
        except LookupError:
            return None
        # Binary search inside each internal node costs CPU.
        self._charge_cpu(
            len(path) * math.log2(max(2, self.inner.fanout)) * CPU_KEY_COMPARE
        )
        self.store.read(leaf_id)
        leaf = self.leaves[leaf_id]
        # Oversized leaves occupy extra index pages, read sequentially.
        extra_pages = self._leaf_index_pages(leaf) - 1
        for _ in range(extra_pages):
            self.store.read(leaf_id, sequential=True)
        return leaf

    def _fetch_runs(self, key, runs: list[tuple[int, int]]) -> SearchResult:
        """Fetch candidate page runs in sorted order and scan them for ``key``.

        Each run is charged like :meth:`Device.read_run` — one random
        positioning for its first page, sequential for the rest — so
        disjoint runs pay one seek each (Eq. 13), matching the accounting
        of ``range_scan`` and ``_rescan_leaf``.  The reads stay page by
        page (rather than a literal ``read_run`` call) so a unique-key
        match or an ordered-data overshoot can still terminate mid-run.
        """
        device = self._data_device
        stats = self._stats()
        result = SearchResult(found=False)
        done = False
        for first_pid, npages in runs:
            run_matches = 0
            run_pages: list[int] = []
            for offset in range(npages):
                pid = first_pid + offset
                if device is not None:
                    device.read_page(pid, sequential=offset > 0)
                run_pages.append(pid)
                page_matches, tids, beyond = self._scan_page(pid, key)
                run_matches += page_matches
                result.matches += page_matches
                result.tids.extend(tids)
                result.pages_read += 1
                if page_matches and self.unique:
                    result.found = True
                    break
                if beyond and self.ordered:
                    # Ordered data: this page already starts past the key,
                    # so no later page can match either.
                    done = True
                    break
            if run_matches == 0:
                result.false_pages += len(run_pages)
                if stats is not None:
                    stats.false_reads += len(run_pages)
            if done or (result.found and self.unique):
                break
        result.found = result.matches > 0
        return result

    def _scan_page(self, pid: int, key) -> tuple[int, list[int], bool]:
        """Scan one (already fetched) data page for ``key``.

        Returns (matches, tids, beyond) where ``beyond`` flags a page whose
        first tuple already exceeds the key — on ordered data everything
        after it is guaranteed not to match.
        """
        view = self.relation.view_page(pid)
        values = view.column(self.key_column)
        matches = 0
        tids: list[int] = []
        examined = 0
        for i, value in enumerate(values):
            examined += 1
            if value == key:
                matches += 1
                tids.append(view.first_tid + i)
            elif value > key and self.ordered:
                break  # ordered data: no later match on this page
        stats = self._stats()
        if stats is not None:
            stats.tuples_scanned += examined
        self._charge_cpu(examined * 25e-9)
        beyond = self.ordered and len(values) > 0 and values[0] > key
        return matches, tids, beyond

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
        self._charge_cpu(CPU_BLOOM_INSERT)
        self.store.write(leaf.node_id)
        return split

    def insert_many(self, keys, pids,
                    latency_sink: list[float] | None = None) -> None:
        """Vectorized Algorithm 3 over a whole batch of inserts.

        Leaves the tree in exactly the state ``[self.insert(k, p) for
        k, p in zip(keys, pids)]`` would — the same leaf structure and
        filter bitsets (splits included, at the same points), the same
        ``nkeys``/tombstone bookkeeping, the same IOStats counters and
        the same simulated clock charges (equal up to float summation
        order) — but the per-key Python work collapses:

        * the batch is routed in one pass over a flattened directory
          (:meth:`InnerTree.routing_table`), then grouped by target leaf;
        * the whole batch is hashed in one call, each key under its
          target leaf's seed (:meth:`BFLeaf.hash_segments`), and each
          leaf pre-tests its key group against its filter page
          (:meth:`BFLeaf.duplicate_flags`);
        * re-inserts of already-present keys — the steady state of a
          mixed workload, where inserts re-index live keys — queue per
          leaf and flush as one chunk that charges the first key
          normally, then replays the identical charges arithmetically
          for the rest;
        * a split invalidates the plan, so every queue is flushed into
          the pre-split state first and the affected sub-batch (every
          key not yet applied) is re-routed and re-hashed.

        ``latency_sink``, if given, receives one simulated per-op latency
        per insert, exactly as the scalar loop would have bracketed them.
        """
        keys = [as_scalar(k) for k in keys]
        pids = [int(p) for p in pids]
        if len(keys) != len(pids):
            raise ValueError("keys and pids must have the same length")
        n = len(keys)
        clock = self._clock()
        track = latency_sink is not None and clock is not None
        latencies = [0.0] * n
        i = 0
        while i < n:
            try:
                pred, paths, rows, dup0, grp = self._plan_writes(
                    keys, pids, i
                )
            except LookupError:
                raise LookupError(
                    "insert into an unbuilt tree; bulk_load first"
                ) from None
            base = i
            replan = False
            # Known duplicate re-inserts commute (no bits change, no
            # splits, no filter growth), so within one plan round they
            # can be queued per leaf and charge-aggregated in one flush.
            # Any other key flushes its own leaf first (it may grow the
            # leaf's filters or discard tombstones the queued duplicates
            # interact with), and a key about to *split* flushes every
            # queue: queued positions precede the split in scalar order,
            # and their charges must land in the pre-split tree AND
            # buffer-pool state (a split writes inner nodes, which
            # evicts them from a warm pool — charges replayed after it
            # would see misses the scalar loop never paid).  A non-
            # duplicate add also distrusts the plan's duplicate flags
            # for its filter group from then on (``dirty``): it set new
            # bits, which can flip both the membership verdict and the
            # trust gate for later keys, so those re-test live.
            fast_dups = self.config.filter_kind != "counting"
            pending: dict[int, list[int]] = {}
            dirty: set[tuple[int, int]] = set()

            def flush_leaf(leaf_id: int) -> None:
                js = pending.pop(leaf_id, None)
                if js:
                    self._apply_duplicate_chunk(
                        self.leaves[leaf_id], paths[leaf_id],
                        [keys[j] for j in js], [pids[j] for j in js],
                        js, latencies if track else None,
                    )

            try:
                i = self._apply_write_round(
                    keys, pids, i, n, base, pred, paths, rows,
                    dup0, grp, fast_dups, pending, dirty, flush_leaf,
                    clock, track, latencies,
                )
            finally:
                # Queued duplicates precede any aborting key in scalar
                # order; apply them even when an exception propagates.
                for leaf_id in list(pending):
                    flush_leaf(leaf_id)
        if latency_sink is not None:
            latency_sink.extend(latencies)
        maybe_check(self)

    def _apply_write_round(self, keys, pids, i, n, base, pred, paths,
                           rows, dup0, grp, fast_dups, pending, dirty,
                           flush_leaf, clock, track, latencies) -> int:
        """One plan round of :meth:`insert_many`'s apply loop (split out
        so the caller can flush the round's pending queues on any exit).
        Returns the index of the first unapplied key: ``n`` when the
        batch is done, less when a split demands a re-plan."""
        while i < n:
            rel = i - base
            leaf_id = pred[rel]
            known_dup = dup0[rel] and (leaf_id, grp[rel]) not in dirty
            if known_dup and fast_dups:
                pending.setdefault(leaf_id, []).append(i)
                i += 1
                continue
            leaf = self.leaves[leaf_id]
            positions = rows[rel].tolist()
            # Pre-batch flags only say "duplicate"; a negative (or a
            # dirtied flag) is re-tested live, since earlier keys in
            # the batch may have set these bits.
            duplicate = True if known_dup else None
            will_split = False
            if duplicate is None:
                try:
                    duplicate = leaf.duplicate_prehashed(pids[i], positions)
                except ValueError:
                    # pid precedes the leaf range: the add will raise
                    # after the descent charges, as the scalar does.
                    duplicate = None
                if duplicate is False:
                    group = leaf.group_of(pids[i])
                    will_split = (
                        group >= leaf.geometry.max_filters
                        or leaf.nkeys + 1 > leaf.key_capacity
                    )
            if will_split:
                for lid in list(pending):
                    flush_leaf(lid)
            else:
                flush_leaf(leaf_id)
            start = clock.now() if track else 0.0
            self._charge_descent(leaf, paths[leaf_id])
            split = self._insert_into(
                leaf, keys[i], pids[i],
                positions=positions, duplicate=duplicate,
            )
            dirty.add((leaf_id, grp[rel]))
            if track:
                latencies[i] = clock.now() - start
            i += 1
            if split:
                break
        return i

    def _plan_writes(self, keys, pids, start: int):
        """Route ``keys[start:]`` structurally and hash them in one call.

        Returns ``(pred, paths, rows, dup0, grp)`` — per-key predicted
        leaf id, per-leaf descent paths, per-key filter position rows,
        per-key pre-batch duplicate flags (membership *and* the
        filter-trust gate, both monotone under adds), and per-key
        filter group (-1 when the pid precedes the leaf range).  No I/O
        is charged here: the apply loop replays each key's descent
        charges itself.  Valid until the next split; a flag for a group
        later written by a non-duplicate add is invalidated by the
        apply loop's dirty-set.
        """
        fences, leaf_ids, paths = self.inner.routing_table()
        sub = keys[start:]
        m = len(sub)
        arr = np.asarray(sub)
        slots = np.asarray(route_batch(fences, sub), dtype=np.int64)
        pred = [leaf_ids[s] for s in slots.tolist()]
        pids_sub = np.asarray(pids[start:], dtype=np.int64)
        rows: list = [None] * m
        dup0 = np.zeros(m, dtype=bool)
        grp = np.full(m, -1, dtype=np.int64)
        # Group keys by target leaf with one stable argsort (slot value
        # <-> leaf is 1:1), instead of a per-key dict pass.
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        if m:
            bounds = np.nonzero(
                np.r_[True, sorted_slots[1:] != sorted_slots[:-1]]
            )[0].tolist() + [m]
        else:
            bounds = [0]
        # One hash call for the whole sub-batch: each key under its
        # target leaf's seed.
        spans = list(zip(bounds, bounds[1:]))
        touched = [self.leaves[leaf_ids[int(sorted_slots[b0])]]
                   for b0, _ in spans]
        segments = BFLeaf.hash_segments(arr[order], touched, bounds)
        for leaf, positions, (b0, b1) in zip(touched, segments, spans):
            idxs = order[b0:b1]
            for r, idx in enumerate(idxs.tolist()):
                rows[idx] = positions[r]
            pid_arr = pids_sub[idxs]
            groups = (pid_arr - leaf.min_pid) // leaf.geometry.pages_per_bf
            grp[idxs[pid_arr >= leaf.min_pid]] = \
                groups[pid_arr >= leaf.min_pid]
            valid = (pid_arr >= leaf.min_pid) & (groups < leaf.nfilters)
            vrows = np.nonzero(valid)[0]
            if len(vrows):
                dup0[idxs[vrows]] = leaf.duplicate_flags(
                    groups[vrows], positions[vrows]
                )
        return pred, paths, rows, dup0.tolist(), grp.tolist()

    def _charge_descent(self, leaf: BFLeaf, path: list[int]) -> None:
        """Replay the exact charges of ``_descend_and_read`` for a key
        whose target leaf (and internal path) is already known."""
        for node_id in path:
            self.store.read(node_id)
        self._charge_cpu(
            len(path) * math.log2(max(2, self.inner.fanout)) * CPU_KEY_COMPARE
        )
        self.store.read(leaf.node_id)
        extra_pages = self._leaf_index_pages(leaf) - 1
        for _ in range(extra_pages):
            self.store.read(leaf.node_id, sequential=True)

    def _apply_duplicate_chunk(self, leaf: BFLeaf, path: list[int],
                               chunk_keys, chunk_pids, js,
                               latencies: list[float] | None) -> None:
        """Apply a chunk of known re-inserts of already-present keys to
        one leaf (plain filters) in one pass.

        Duplicates change no filter bits, never split, and never grow
        the filter list, so every key charges the identical descent +
        CPU + leaf write sequence: the first key runs through the real
        charging calls (pool behaviour included) and is measured; the
        remaining ``m - 1`` replay that measurement arithmetically
        (clock totals then differ from the scalar loop only by float
        summation order; IOStats stay exact).  Bookkeeping (filter add
        multiplicity, key range, page coverage, tombstone clearing) is
        applied in bulk — all of it commutative, so order inside the
        chunk cannot matter.  ``js`` are the keys' batch indices, for
        the latency scatter.
        """
        m = len(chunk_keys)
        clock = self._clock()
        stats = self._stats()
        before = stats.snapshot() if stats is not None and m > 1 else None
        t0 = clock.now() if clock is not None else 0.0
        self._charge_descent(leaf, path)
        self._charge_cpu(CPU_BLOOM_INSERT)
        self.store.write(leaf.node_id)
        dt = clock.now() - t0 if clock is not None else 0.0
        if m > 1:
            if clock is not None:
                clock.advance(dt * (m - 1))
            if stats is not None:
                delta = stats.diff(before)
                for f in fields(delta):
                    setattr(stats, f.name, getattr(stats, f.name)
                            + (m - 1) * getattr(delta, f.name))
        ppb = leaf.geometry.pages_per_bf
        min_pid = leaf.min_pid
        filters = leaf.filters
        for pid in chunk_pids:
            filters[(pid - min_pid) // ppb].count += 1
        leaf.pages_covered = max(
            leaf.pages_covered, max(chunk_pids) - min_pid + 1
        )
        lo, hi = min(chunk_keys), max(chunk_keys)
        if leaf.min_key is None or lo < leaf.min_key:
            leaf.min_key = lo
        if leaf.max_key is None or hi > leaf.max_key:
            leaf.max_key = hi
        if leaf.deleted_keys:
            leaf.deleted_keys.difference_update(chunk_keys)
        if latencies is not None:
            for j in js:
                latencies[j] = dt

    @staticmethod
    def _route_after_split(key, left: BFLeaf, right: BFLeaf) -> BFLeaf:
        """Post-split insert routing, tolerant of a degenerate empty side.

        ``_split_leaf`` guarantees both sides hold live keys, but a leaf
        whose side went empty (e.g. trees deserialized from older state)
        must not crash routing: an empty side has ``min_key is None``, and
        comparing against ``None`` raises ``TypeError``.
        """
        if right.min_key is None:
            return left
        if left.min_key is None:
            return right
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
        self._charge_cpu(CPU_BLOOM_INSERT)
        self.store.write(leaf.node_id)

    def delete(self, key, pid: int | None = None) -> DeleteOutcome:
        """Delete ``key`` from the index (paper §7).

        With plain filters the key lands on the leaf's deleted list,
        which keeps the fpp from degrading the way in-place bit clearing
        would.  With ``filter_kind="counting"`` and ``pid`` given, the
        counters of the filter covering that page are decremented — a
        true in-place delete with no tombstone growth.

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

    def delete_many(self, keys, pids=None,
                    latency_sink: list[float] | None = None
                    ) -> list[DeleteOutcome]:
        """Batch :meth:`delete` — bit-identical outcomes, tree state,
        IOStats and clock charges versus the scalar loop.

        ``pids`` is a parallel sequence of data page ids (entries may be
        None), meaningful for counting-filter trees, where each leaf then
        hashes its key group once instead of k Python hash rounds per
        key.  Deletes never restructure the tree, so one routing pass
        covers the whole batch.  ``latency_sink`` receives per-op
        simulated latencies, as the scalar loop would bracket them.
        """
        keys = [as_scalar(k) for k in keys]
        n = len(keys)
        if pids is None:
            pids = [None] * n
        else:
            pids = [None if p is None else int(p) for p in pids]
        if len(pids) != n:
            raise ValueError("keys and pids must have the same length")
        clock = self._clock()
        track = latency_sink is not None and clock is not None
        latencies = [0.0] * n
        outcomes: list[DeleteOutcome] = [DeleteOutcome(removed=False)] * n
        try:
            fences, leaf_ids, paths = self.inner.routing_table()
        except LookupError:
            # Empty tree: scalar delete reports not-found per key.
            if latency_sink is not None:
                latency_sink.extend(latencies)
            return outcomes
        prehash = self.config.filter_kind == "counting"
        slots = route_batch(fences, keys)
        rows: list = [None] * n
        if prehash:
            by_leaf: dict[int, list[int]] = {}
            for j, s in enumerate(slots):
                if pids[j] is not None:
                    by_leaf.setdefault(leaf_ids[s], []).append(j)
            for leaf_id, js in by_leaf.items():
                positions = self.leaves[leaf_id].hash_batch(
                    [keys[j] for j in js]
                )
                for r, j in enumerate(js):
                    rows[j] = positions[r]
        for j, key in enumerate(keys):
            leaf = self.leaves[leaf_ids[slots[j]]]
            start = clock.now() if track else 0.0
            self._charge_descent(leaf, path=paths[leaf.node_id])
            if leaf.covers_key(key):
                row = rows[j]
                outcomes[j] = self._delete_from(
                    leaf, key, pids[j],
                    positions=row.tolist() if row is not None else None,
                )
            if track:
                latencies[j] = clock.now() - start
        if latency_sink is not None:
            latency_sink.extend(latencies)
        maybe_check(self)
        return outcomes

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
        self.inner_replace(leaf, left, right, separator=mid)
        self.store.write(left.node_id)
        self.store.write(right.node_id)
        return left, right

    def _rescan_leaf(self, leaf: BFLeaf) -> list[tuple[object, int]]:
        """Distinct (key, pid) pairs in the leaf's page range (charged I/O)."""
        pairs: list[tuple[object, int]] = []
        device = self._data_device
        if device is not None and leaf.pages_covered > 0:
            device.read_run(leaf.min_pid, leaf.pages_covered)
        for pid in range(leaf.min_pid, leaf.min_pid + leaf.pages_covered):
            if pid >= self.relation.npages:
                break
            view = self.relation.view_page(pid)
            for key in np.unique(view.column(self.key_column)):
                pairs.append((key.item(), pid))
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

    def inner_replace(self, old: BFLeaf, left: BFLeaf, right: BFLeaf,
                      separator) -> None:
        """Swap ``old`` for ``left`` in the directory and add ``right``."""
        if self.inner.root_id is None:
            # Degenerate single-leaf tree.
            self.inner._single_leaf = None
            self.inner.register_single_leaf(left.node_id)
            self.inner.split_child(left.node_id, separator, right.node_id)
            return
        path = self.inner._path_to_child(old.node_id)
        parent = path[-1]
        parent.children[parent.child_index(old.node_id)] = left.node_id
        self.inner.split_child(left.node_id, separator, right.node_id)

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
        """
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
        try:
            leaf_id, path = self.inner.descend(lo)
        except LookupError:
            return RangeScanResult(matches=0, pages_read=0, leaves_visited=0)
        self._charge_cpu(
            len(path) * math.log2(max(2, self.inner.fanout)) * CPU_KEY_COMPARE
        )
        matches = 0
        pages_read = 0
        leaves_visited = 0
        prev_pid: int | None = None
        device = self._data_device
        current: BFLeaf | None = self.leaves[leaf_id]
        if not self.ordered:
            # Overlapping partitions: earlier leaves may also intersect
            # the range.
            while current.prev_leaf_id is not None:
                prev = self.leaves.get(current.prev_leaf_id)
                if prev is None or prev.max_key is None or prev.max_key < lo:
                    break
                current = prev
        while current is not None:
            if current.min_key is not None and current.min_key > hi:
                break
            self.store.read(current.node_id, sequential=leaves_visited > 0)
            leaves_visited += 1
            pids = self._leaf_scan_pids(current, lo, hi, enumerate_boundaries)
            if pids:
                if device is not None:
                    for pid in pids:
                        device.read_page(
                            pid,
                            sequential=(prev_pid is not None
                                        and pid == prev_pid + 1),
                        )
                        prev_pid = pid
                else:
                    prev_pid = pids[-1]
                pages_read += len(pids)
                matches += self._count_range_matches(pids, lo, hi)
            next_id = current.next_leaf_id
            current = self.leaves.get(next_id) if next_id is not None else None
        return RangeScanResult(matches=matches, pages_read=pages_read,
                               leaves_visited=leaves_visited)

    def range_scan_many(self, windows, enumerate_boundaries: bool = False,
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]:
        """Vectorized §7 range scans over a batch of ``(lo, hi)`` windows.

        Returns exactly ``[self.range_scan(lo, hi) for lo, hi in
        windows]`` — the same per-scan :class:`RangeScanResult`, the same
        IOStats counters and the same simulated clock charges (equal up
        to float summation order) — but the per-page Python work
        collapses:

        * every window is routed in one pass over the flattened
          directory (:meth:`InnerTree.routing_table`), as the batch
          write engine does, skipping the per-scan directory walk;
        * each scan's data-page runs are charged through
          :meth:`Device.read_batch` — one aggregate advance per leaf
          visit with the exact Eq. 13 random/sequential split the scalar
          per-page loop produces;
        * boundary-leaf filter enumeration (``enumerate_boundaries``)
          probes all overlapping key values through the shared-hash
          batch machinery (:meth:`BFLeaf.matching_page_runs_many`);
        * match counting is deferred and vectorized: all scans covering
          a page are counted in one NumPy pass over that page's column
          (one global ``searchsorted`` for ordered data).

        Scans never mutate the tree and every charge on the scan path
        declares its access pattern explicitly, so per-scan charges are
        independent of processing order; ``latency_sink`` receives one
        simulated per-scan latency per window (aligned with
        ``windows``), exactly as the scalar loop would bracket them.
        Invalid windows (``lo > hi``) are rejected up front, before any
        charges land.
        """
        wins = normalize_scan_windows(windows)
        n = len(wins)
        results = [
            RangeScanResult(matches=0, pages_read=0, leaves_visited=0)
            for _ in range(n)
        ]
        clock = self._clock()
        track = latency_sink is not None and clock is not None
        latencies = [0.0] * n
        try:
            fences, leaf_ids, paths = self.inner.routing_table()
        except LookupError:
            if latency_sink is not None:
                latency_sink.extend(latencies)
            return results
        slots = route_batch(fences, [lo for lo, _ in wins])
        device = self._data_device
        # Deferred match counting: (scan, first_pid, npages) jobs, one
        # row per charged page run, counted vectorized after the sweep.
        jobs_scan: list[int] = []
        jobs_first: list[int] = []
        jobs_count: list[int] = []
        for j in range(n):
            lo, hi = wins[j]
            res = results[j]
            start_t = clock.now() if track else 0.0
            leaf_id = leaf_ids[slots[j]]
            path = paths[leaf_id]
            for node_id in path:
                self.store.read(node_id)
            self._charge_cpu(
                len(path) * math.log2(max(2, self.inner.fanout))
                * CPU_KEY_COMPARE
            )
            current: BFLeaf | None = self.leaves[leaf_id]
            if not self.ordered:
                while current.prev_leaf_id is not None:
                    prev = self.leaves.get(current.prev_leaf_id)
                    if (prev is None or prev.max_key is None
                            or prev.max_key < lo):
                        break
                    current = prev
            prev_pid: int | None = None
            while current is not None:
                if current.min_key is not None and current.min_key > hi:
                    break
                self.store.read(current.node_id,
                                sequential=res.leaves_visited > 0)
                res.leaves_visited += 1
                runs = self._leaf_scan_runs(current, lo, hi,
                                            enumerate_boundaries)
                if runs:
                    n_random, n_seq, prev_pid = classify_read_runs(
                        runs, prev_pid
                    )
                    if device is not None:
                        device.read_batch(n_random, n_seq,
                                          last_page=prev_pid)
                    res.pages_read += n_random + n_seq
                    for first, cnt in runs:
                        jobs_scan.append(j)
                        jobs_first.append(first)
                        jobs_count.append(cnt)
                next_id = current.next_leaf_id
                current = (self.leaves.get(next_id)
                           if next_id is not None else None)
            if track:
                latencies[j] = clock.now() - start_t
        self._count_scan_jobs(wins, results, jobs_scan, jobs_first,
                              jobs_count)
        if latency_sink is not None:
            latency_sink.extend(latencies)
        return results

    def _leaf_scan_runs(self, leaf: BFLeaf, lo, hi,
                        enumerate_boundaries: bool
                        ) -> list[tuple[int, int]]:
        """Run-compressed :meth:`_leaf_scan_pids` for the batch scan path.

        Returns ``(first_pid, npages)`` runs covering exactly the pids
        the scalar helper lists, with the boundary-enumeration filter
        probes batched (per-value charges aggregated into one IOStats
        bump and one CPU advance — same integers, float clock total
        equal up to summation order).
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
        self._charge_cpu(len(values) * leaf.nfilters * CPU_BLOOM_PROBE)
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

    def _count_scan_jobs(self, wins, results, jobs_scan, jobs_first,
                         jobs_count) -> None:
        """Vectorized deferred match counting for :meth:`range_scan_many`.

        Ordered data: one global ``searchsorted`` pair over the sorted
        column resolves every job's count arithmetically.  Partitioned
        data: jobs are grouped by page and all scans covering a page are
        counted in one vectorized pass over that page's column.  Both
        produce the exact integers ``_count_range_matches`` would.
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
            lo_idx = np.searchsorted(
                col, np.asarray([wins[j][0] for j in jobs_scan]), side="left"
            )
            hi_idx = np.searchsorted(
                col, np.asarray([wins[j][1] for j in jobs_scan]), side="right"
            )
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
            for pid, rows in by_pid.items():
                v = rel.view_page(pid).column(self.key_column)
                lo_arr = np.asarray([wins[jobs_scan[r]][0] for r in rows])
                hi_arr = np.asarray([wins[jobs_scan[r]][1] for r in rows])
                counts = (
                    (v >= lo_arr[:, None]) & (v <= hi_arr[:, None])
                ).sum(axis=1)
                np.add.at(matches, scan_arr[rows], counts)
        for j, res in enumerate(results):
            res.matches += int(matches[j])

    def _leaf_scan_pids(self, leaf: BFLeaf, lo, hi,
                        enumerate_boundaries: bool) -> list[int]:
        if leaf.min_key is None or leaf.max_key is None:
            return []
        if leaf.max_key < lo or leaf.min_key > hi:
            return []
        is_boundary = leaf.min_key < lo or leaf.max_key > hi
        all_pids = list(range(leaf.min_pid, leaf.min_pid + leaf.pages_covered))
        if not is_boundary or not enumerate_boundaries:
            return all_pids
        # §7 optimization: enumerate the overlapping values and probe BFs.
        start = max(lo, leaf.min_key)
        stop = min(hi, leaf.max_key)
        if not isinstance(start, (int, np.integer)) or stop - start > 100_000:
            return all_pids  # impractical domain; fall back to full read
        wanted: set[int] = set()
        stats = self._stats()
        for value in range(int(start), int(stop) + 1):
            if stats is not None:
                stats.bloom_probes += leaf.nfilters
            self._charge_cpu(leaf.nfilters * CPU_BLOOM_PROBE)
            for first, npages in leaf.matching_page_runs(value):
                wanted.update(range(first, first + npages))
        return sorted(wanted)

    def _count_range_matches(self, pids: list[int], lo, hi) -> int:
        matches = 0
        for pid in pids:
            if pid >= self.relation.npages:
                continue
            values = self.relation.view_page(pid).column(self.key_column)
            matches += int(np.count_nonzero((values >= lo) & (values <= hi)))
        return matches

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
            view = self.relation.view_page(pid)
            mask = (view.column(self.key_column) == key_self) & (
                view.column(other.key_column) == key_other
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
        for candidate in self._candidate_leaves(key, leaf):
            if not candidate.covers_key(key):
                continue
            if stats is not None:
                stats.bloom_probes += candidate.nfilters
            self._charge_cpu(candidate.nfilters * CPU_BLOOM_PROBE)
            for first, npages in candidate.matching_page_runs(key):
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
        by_id = self.leaves
        targets = {l.next_leaf_id for l in by_id.values() if l.next_leaf_id is not None}
        heads = [l for lid, l in by_id.items() if lid not in targets]
        if not heads:
            return []
        head = min(heads, key=lambda l: l.min_pid)
        chain = [head]
        while chain[-1].next_leaf_id is not None:
            chain.append(by_id[chain[-1].next_leaf_id])
        return chain

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BFTree(column={self.key_column!r}, fpp={self.config.fpp}, "
            f"leaves={self.n_leaves}, height={self.height}, "
            f"pages={self.size_pages})"
        )
