"""ShardedIndex: one key space range-partitioned across N index shards.

The serving layer's core data structure.  A :class:`ShardedIndex` holds N
independent index shards, each owning a contiguous slice of the key
space and — once bound — its *own* storage stack (device pair, IOStats,
optional buffer pool), so shards progress concurrently the way
the partitions of a distributed index do.

**Backend-agnostic.**  Shards are built through the
:mod:`repro.api` registry (``kind`` is any registered backend name) and
driven purely through the unified Index protocol — there are no
backend-specific branches here.  Leaf-sliceable ordered trees
(``supports_sharding``: BF-Tree, B+-Tree) are partitioned via their
``shard_leaves``/``shard_from_leaves`` hooks; every other backend
(hash, FD-Tree, SILT, binsearch) serves as a single-shard degenerate
case, so the whole registry is servable under identical traffic.
Write addressing goes through ``index.write_target(tid)`` — the
protocol hook that maps a tuple id to the backend's native target
(page id for BF-Trees, rid for everything else).

**Topology is dynamic.**  The partition layout lives in a first-class
:class:`~repro.service.routing.RoutingTable`: an epoch-versioned ordered
map from key ranges to *stable shard ids*.  :meth:`split_shard` and
:meth:`merge_shards` change the layout live — children are rebuilt from
the parent's leaf run via the same ``shard_from_leaves`` hook the static
builder uses, and only then does the table's epoch flip.  Positional
shard ordinals are meaningful within a single epoch only; resolve
shards by stable id (:meth:`shard_by_id`) when holding state across
operations.

**Construction is equivalence-preserving.**  ``build`` bulk-loads one
donor index over the whole relation, then slices its leaf chain into
contiguous runs and rebuilds an independent directory over each run
(:meth:`BFTree.from_leaves`).  Because the shards reuse the donor's leaf
objects — the exact same Bloom bit patterns, key fences and page runs a
single unsharded index would have — a point operation routed to its
shard performs *bit-identical* work: the same ``SearchResult`` (global
tuple ids included, since all shards share the one relation) and the
same I/O charges, so the shards' IOStats counters **sum** to the
unsharded index's counters exactly.  Two conditions guard this:

* cuts never land on a key that spans the boundary (the slicer skips
  spill-back leaves and duplicate fences), so no probe would need a
  neighbour leaf across a shard border;
* every shard keeps at least two leaves, so each shard directory has
  the same height as the donor's (one root over the leaf level at any
  scale where the donor's leaf count fits one root) and descents charge
  the same index reads.  ``uniform_height`` records whether this held.

Live splits and merges preserve the same story: children inherit the
parent's leaf objects unchanged, and the retired parent stack's already
-charged IOStats are absorbed into the service-level ``retired_io``
accumulator, so :meth:`merged_io` still sums to the totals a static
topology would have charged for the same past work.  Retired work is
kept as counts, not seconds: whoever reads it prices it with the stack
of their choice (a rebind to another config re-prices it, as it does
every live shard's past counts).

Range scans are routed to every overlapping shard; a cross-shard scan
pays one extra directory descent per additional shard — the real cost a
scatter-gather scan pays in a sharded system — while its match count
remains exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.api.protocol import Index
from repro.api.registry import make_index
from repro.analysis.sanitize import maybe_check
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    normalize_scan_windows,
)
from repro.service.routing import RoutingTable
from repro.storage.config import StorageConfig, StorageStack, build_stack
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation

#: Fewest leaves a shard needs to split: two per child, so each child
#: keeps the donor's directory height.
MIN_SPLIT_LEAVES = 4


@dataclass
class Shard:
    """One partition: an index over a contiguous key slice + its stack.

    ``shard_id`` is the shard's *stable* name in the routing table — it
    never changes for the shard's lifetime (splits and merges mint fresh
    ids for their children).  ``-1`` asks :class:`ShardedIndex` to
    assign the next free id at construction.
    """

    index: Index
    lo_key: Any             # smallest routable key (None = open left end)
    hi_key: Any             # largest key at creation time (introspection
                            # only; scans clamp to the routing boundary,
                            # which also covers keys inserted past hi_key)
    stack: StorageStack | None = None
    shard_id: int = -1

    @property
    def bound(self) -> bool:
        return self.stack is not None


class ShardedIndex:
    """Hash-free range partitioning of one indexed column across shards."""

    #: The service is not itself leaf-sliceable (its shards are).
    supports_sharding = False

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        shards: list[Shard],
        kind: str,
        unique: bool,
        donor_height: int,
        *,
        epoch: int = 0,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.kind = kind
        self.unique = unique
        self.donor_height = donor_height
        next_id = 1 + max(
            (s.shard_id for s in shards if s.shard_id >= 0), default=-1
        )
        for shard in shards:
            if shard.shard_id < 0:
                shard.shard_id = next_id
                next_id += 1
        self._by_id: dict[int, Shard] = {s.shard_id: s for s in shards}
        if len(self._by_id) != len(shards):
            raise ValueError(
                f"duplicate shard ids: {[s.shard_id for s in shards]!r}"
            )
        #: The source of truth for the partition layout.  Every routing
        #: decision goes through it; its epoch bumps on split/merge.
        self.table = RoutingTable(
            [(s.lo_key, s.shard_id) for s in shards], epoch=epoch
        )
        self._next_shard_id = next_id
        self._shards_cache: tuple[int, list[Shard]] | None = None
        self._bind_config: StorageConfig | str | None = None
        self._bind_warm = False
        #: IOStats charged by stacks of shards that were since split or
        #: merged away — keeps :meth:`merged_io` summing
        #: to the pre-topology-change totals for already-charged work.
        self.retired_io = IOStats()

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def build(
        cls,
        relation: Relation,
        key_column: str,
        n_shards: int = 4,
        kind: str = "bf",
        config: Any = None,
        unique: bool = False,
        **cfg: Any,
    ) -> "ShardedIndex":
        """Build a donor index via the backend registry and slice it
        into up to ``n_shards``.

        ``kind`` is any registered backend name
        (:func:`repro.api.registered_backends`); ``config`` is that
        backend builder's own config (a
        :class:`~repro.core.bf_tree.BFTreeConfig` for ``"bf"``), not a
        storage config: storage binds later (:meth:`bind`).  It and the
        extra keyword arguments (``fpp``, ...) are forwarded to the
        builder through :func:`make_index`.  Leaf-sliceable trees are
        partitioned with cuts moved off key-spanning boundaries and each
        shard keeping at least two leaves (directory-height parity with
        the donor), so the effective shard count may be lower than
        requested.  Backends without sliceable leaves come back as a
        single-shard service — the degenerate case that still rides the
        Router, the batch engines and the stats pipeline unchanged.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        donor = make_index(kind, relation, key_column, unique=unique,
                           config=config, **cfg)
        if not donor.supports_sharding:
            shards = [Shard(index=donor, lo_key=None, hi_key=None)]
            return cls(relation, key_column, shards, kind, unique,
                       donor.height)
        leaves = donor.shard_leaves()
        donor_height = donor.height
        cuts = cls._choose_cuts(leaves, n_shards, donor)
        runs = [
            leaves[start:stop]
            for start, stop in zip([0] + cuts, cuts + [len(leaves)])
        ]
        shards = []
        for i, run in enumerate(runs):
            tree = donor.shard_from_leaves(run)
            lo = donor.shard_leaf_span(run[0])[0]
            hi = donor.shard_leaf_span(run[-1])[1]
            shards.append(Shard(index=tree, lo_key=None if i == 0 else lo,
                                hi_key=hi))
        return cls(relation, key_column, shards, kind, unique, donor_height)

    @staticmethod
    def _choose_cuts(leaves: list[Any], n_shards: int,
                     donor: Index) -> list[int]:
        """Balanced leaf-chain cut positions, adjusted off spanning keys
        (the backend's ``shard_cut_spans`` hook knows its leaf layout)."""
        n_leaves = len(leaves)
        n = max(1, min(n_shards, n_leaves // 2))

        cuts: list[int] = []
        prev = 0
        for s in range(1, n):
            ideal = round(s * n_leaves / n)
            c = max(ideal, prev + 2)
            while c < n_leaves and donor.shard_cut_spans(leaves[c - 1],
                                                         leaves[c]):
                c += 1
            if c >= n_leaves or n_leaves - c < 2:
                break
            cuts.append(c)
            prev = c
        return cuts

    # ==================================================================
    # storage binding
    # ==================================================================
    def bind(self, config: StorageConfig | str, warm: bool = False) -> None:
        """Give every shard a fresh, independent storage stack.

        The config is remembered so shards created by a later
        :meth:`split_shard`/:meth:`merge_shards` bind the same way.
        """
        self._bind_config = config
        self._bind_warm = warm
        for shard in self.shards:
            shard.stack = build_stack(config)
            shard.index.bind(shard.stack, warm=warm)

    def unbind(self) -> None:
        self._bind_config = None
        self._bind_warm = False
        for shard in self.shards:
            shard.index.unbind()
            shard.stack = None

    # ==================================================================
    # topology
    # ==================================================================
    @property
    def shards(self) -> list[Shard]:
        """Shards in key-range order for the *current* epoch.

        The list is derived from the routing table (and memoized per
        epoch); positions in it are epoch-scoped ordinals — hold a
        stable ``shard_id`` instead when state outlives one call.
        """
        cached = self._shards_cache
        epoch = self.table.epoch
        if cached is not None and cached[0] == epoch:
            return cached[1]
        ordered = [self._by_id[e.shard_id] for e in self.table.entries]
        self._shards_cache = (epoch, ordered)
        return ordered

    @property
    def topology_epoch(self) -> int:
        return self.table.epoch

    def shard_by_id(self, shard_id: int) -> Shard | None:
        """Resolve a stable shard id (None once split/merged away)."""
        return self._by_id.get(shard_id)

    def _retire_stack(self, shard: Shard) -> None:
        """Absorb a to-be-discarded shard's charged work into the
        service-level accumulators so ``merged_io`` stays continuous."""
        if shard.stack is not None:
            self.retired_io = self.retired_io + shard.stack.stats
            shard.index.unbind()
            shard.stack = None

    def _admit(self, shard: Shard) -> None:
        """Register a freshly built shard and bind it like its peers."""
        self._by_id[shard.shard_id] = shard
        if self._bind_config is not None:
            shard.stack = build_stack(self._bind_config)
            shard.index.bind(shard.stack, warm=self._bind_warm)

    @staticmethod
    def _split_cut(index: Index, leaves: list[Any], at: Any) -> int:
        """Pick a leaf-chain cut for a split: the midpoint (or the first
        leaf at/above ``at``), nudged off key-spanning boundaries while
        keeping at least two leaves on each side."""
        n = len(leaves)
        if at is None:
            ideal = n // 2
        else:
            at = as_scalar(at)
            ideal = n - 2
            for c in range(1, n):
                span_lo = index.shard_leaf_span(leaves[c])[0]
                if span_lo is not None and span_lo >= at:
                    ideal = c
                    break
        ideal = max(2, min(n - 2, ideal))
        for delta in range(n):
            for c in (ideal + delta, ideal - delta):
                if 2 <= c <= n - 2 and not index.shard_cut_spans(
                    leaves[c - 1], leaves[c]
                ):
                    return c
        raise ValueError(
            "no valid split point: every candidate cut spans a key"
        )

    def split_shard(self, shard_id: int, *,
                    at: Any = None) -> tuple[int, int]:
        """Split one shard's key range into two live children.

        The parent's leaf run is cut (optionally near key ``at``) and
        each half rebuilt into an independent shard directory via the
        backend's ``shard_from_leaves`` hook — the children reuse the
        parent's leaf objects, so reads served after the split are
        bit-identical to reads served before it.  The parent's charged
        IOStats are retired into the service accumulator, and the
        routing-table epoch flips last, once the children are registered
        and bound.

        Returns the two fresh child shard ids (left, right).
        """
        shard = self._by_id.get(shard_id)
        if shard is None:
            raise KeyError(f"shard id {shard_id} is not in the service")
        index = shard.index
        if not index.supports_sharding:
            raise ValueError(
                f"shard {shard_id} ({type(index).__name__}) is not "
                "leaf-sliceable and cannot be split"
            )
        if index.n_leaves < MIN_SPLIT_LEAVES:
            raise ValueError(
                f"shard {shard_id} has {index.n_leaves} leaves; a split "
                f"needs at least {MIN_SPLIT_LEAVES} (two per child)"
            )
        leaves = index.shard_leaves()
        cut = self._split_cut(index, leaves, at)
        left_run, right_run = leaves[:cut], leaves[cut:]
        boundary = as_scalar(index.shard_leaf_span(right_run[0])[0])
        left_hi = as_scalar(index.shard_leaf_span(left_run[-1])[1])
        right_hi = as_scalar(index.shard_leaf_span(right_run[-1])[1])
        self._retire_stack(shard)
        left_id = self._next_shard_id
        right_id = left_id + 1
        self._next_shard_id += 2
        left = Shard(index=index.shard_from_leaves(left_run),
                     lo_key=shard.lo_key, hi_key=left_hi, shard_id=left_id)
        right = Shard(index=index.shard_from_leaves(right_run),
                      lo_key=boundary, hi_key=right_hi, shard_id=right_id)
        del self._by_id[shard_id]
        self._admit(left)
        self._admit(right)
        self.table.split(shard_id, boundary, left_id, right_id)
        maybe_check(self)
        return left_id, right_id

    def merge_shards(self, sid_a: int, sid_b: int) -> int:
        """Merge two *adjacent* shards into one live shard.

        The two leaf runs are concatenated in key order and rebuilt into
        one shard directory (``shard_from_leaves`` relinks the chain
        across the old seam).  Stack retirement and the epoch flip follow
        the same discipline as :meth:`split_shard`.

        Returns the fresh merged shard id.
        """
        for sid in (sid_a, sid_b):
            if sid not in self._by_id:
                raise KeyError(f"shard id {sid} is not in the service")
        oa = self.table.ordinal_of(sid_a)
        ob = self.table.ordinal_of(sid_b)
        if ob == oa - 1:            # caller order-insensitive
            sid_a, sid_b = sid_b, sid_a
        elif ob != oa + 1:
            raise ValueError(
                f"shards {sid_a} and {sid_b} are not adjacent in "
                "key-range order"
            )
        left, right = self._by_id[sid_a], self._by_id[sid_b]
        if not (left.index.supports_sharding
                and right.index.supports_sharding):
            raise ValueError(
                f"shards {sid_a}/{sid_b} are not leaf-sliceable and "
                "cannot be merged"
            )
        run = left.index.shard_leaves() + right.index.shard_leaves()
        merged_hi = as_scalar(left.index.shard_leaf_span(run[-1])[1])
        self._retire_stack(left)
        self._retire_stack(right)
        merged_id = self._next_shard_id
        self._next_shard_id += 1
        merged = Shard(index=left.index.shard_from_leaves(run),
                       lo_key=left.lo_key, hi_key=merged_hi,
                       shard_id=merged_id)
        del self._by_id[sid_a]
        del self._by_id[sid_b]
        self._admit(merged)
        self.table.merge(sid_a, sid_b, merged_id)
        maybe_check(self)
        return merged_id

    # ==================================================================
    # routing
    # ==================================================================
    def route(self, keys: Sequence[Any]) -> np.ndarray:
        """Shard ordinal for each key (vectorized, rightmost-biased;
        valid for the current epoch only — see :class:`RoutingTable`)."""
        return self.table.route(keys)

    def route_key(self, key: Any) -> int:
        return self.table.route_key(key)

    def scan_plan(self, lo: Any, hi: Any) -> list[tuple[int, Any, Any]]:
        """(shard, sub_lo, sub_hi) legs of a range scan over [lo, hi].

        Middle legs (every shard but the last) are clamped to the
        *routing boundary* — the next table entry's ``lo_key`` — not to
        the shard's build-time ``hi_key``: inserts route any key below
        the boundary to this shard, so clamping at the build-time
        maximum would silently drop keys inserted between ``hi_key`` and
        the boundary from cross-shard scans.  A shard can never hold a
        key ``>=`` the boundary (the router sends those to its
        neighbour), so consecutive legs sharing the boundary value
        cannot count anything twice.
        """
        return self.scan_plan_many([(lo, hi)])[0]

    def scan_plan_many(self, windows: Iterable[tuple[Any, Any]]
                       ) -> list[list[tuple[int, Any, Any]]]:
        """Vectorized :meth:`scan_plan` over a batch of scan windows.

        Both endpoints of every window are routed in one
        ``searchsorted`` pass each; entry ``j`` equals
        ``scan_plan(*windows[j])`` exactly.  The Router's trace planning
        runs on this.
        """
        wins = normalize_scan_windows(windows)
        if not wins:
            return []
        table = self.table
        s_los = table.route([lo for lo, _ in wins])
        s_his = table.route([hi for _, hi in wins])
        plans: list[list[tuple[int, Any, Any]]] = []
        for (lo, hi), s_lo, s_hi in zip(wins, s_los, s_his):
            legs: list[tuple[int, Any, Any]] = []
            for s in range(int(s_lo), int(s_hi) + 1):
                sub_lo = lo if s == s_lo else table.lo_of(s)
                sub_hi = hi if s == s_hi else table.boundary_of(s)
                if sub_lo is None:
                    sub_lo = lo
                if sub_lo <= sub_hi:
                    legs.append((s, sub_lo, sub_hi))
            plans.append(legs)
        return plans

    # ==================================================================
    # operations: the per-op reference.  The Router is the service's
    # only batch path, for reads and writes alike; these scalar calls
    # are what it is held to, op by op in trace order
    # (tests/per_op_replay.py).
    # ==================================================================
    def search(self, key: Any) -> SearchResult:
        return self.shards[self.route_key(key)].index.search(key)

    def insert(self, key: Any, tid: int) -> None:
        """Index tuple ``tid`` under ``key`` on the owning shard.

        Tuple-id-to-native-target translation (BF-Trees index data
        *pages*, rid-based backends keep the tuple id) lives in the
        protocol's ``write_target`` hook, so no backend branching
        happens here."""
        key = as_scalar(key)
        shard = self.shards[self.route_key(key)]
        shard.index.insert(key, shard.index.write_target(int(tid)))

    def delete(self, key: Any, tid: int | None = None) -> DeleteOutcome:
        """Delete ``key`` on the owning shard; ``tid`` (None for an
        untargeted delete) goes through ``write_target`` as an insert's
        does, so a counting BF shard decrements its counters in place."""
        key = as_scalar(key)
        index = self.shards[self.route_key(key)].index
        return index.delete(
            key, None if tid is None else index.write_target(int(tid)))

    def range_scan(self, lo: Any, hi: Any) -> RangeScanResult:
        """Scatter-gather scan: every overlapping shard scans its slice."""
        total = RangeScanResult(matches=0, pages_read=0, leaves_visited=0)
        for s, sub_lo, sub_hi in self.scan_plan(lo, hi):
            part = self.shards[s].index.range_scan(sub_lo, sub_hi)
            total.matches += part.matches
            total.pages_read += part.pages_read
            total.leaves_visited += part.leaves_visited
        return total

    # ==================================================================
    # introspection
    # ==================================================================
    @property
    def n_shards(self) -> int:
        return len(self._by_id)

    @property
    def uniform_height(self) -> bool:
        """True when every shard directory matches the donor's height —
        the precondition for exact IOStats equivalence."""
        return all(s.index.height == self.donor_height for s in self.shards)

    @property
    def size_pages(self) -> int:
        return sum(s.index.size_pages for s in self.shards)

    @property
    def n_leaves(self) -> int:
        return sum(s.index.n_leaves for s in self.shards)

    @property
    def height(self) -> int:
        return max(s.index.height for s in self.shards)

    def merged_io(self) -> IOStats:
        """All shards' counters summed into one block — including work
        charged by since-retired shards (split/merge donors), so the sum
        stays continuous across topology changes."""
        total = IOStats() + self.retired_io
        for shard in self.shards:
            if shard.stack is not None:
                total = total + shard.stack.stats
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardedIndex(kind={self.kind!r}, column={self.key_column!r}, "
            f"shards={self.n_shards}, epoch={self.topology_epoch}, "
            f"leaves={self.n_leaves}, pages={self.size_pages})"
        )
