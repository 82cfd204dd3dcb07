"""Page-based B+-Tree baseline (the index the paper compares against).

Leaves store one entry per *distinct* key with the rid list of all its
duplicates — the layout behind the paper's Equation 3, where the key size
is amortized over ``avgcard`` but every tuple costs one pointer::

    BPleaves = notuples * (keysize / avgcard + ptrsize) / pagesize

Internal levels reuse :class:`repro.core.node.InnerTree`, exactly as the
paper's prototype reuses the B+-Tree code above BF-leaves.  A key whose
rid list exceeds one page continues into the following leaf (duplicate
fence keys), as real B+-Trees do for heavy duplicates.

Probe semantics mirror §6: a match fetches the tuple's data page by rid;
a non-unique match fetches every page holding a duplicate ("every probe
with a positive match will read all the consecutive tuples that have the
same value"), first page random, the rest sequential.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sanitize import maybe_check
from repro.api.protocol import Capabilities, IndexBackend
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
    normalize_scan_windows,
)
from repro.core.node import (
    InnerTree,
    NodeStore,
    fanout_for,
    link_chain,
    ordered_chain,
)
from repro.storage.config import StorageStack
from repro.storage.device import PAGE_SIZE, classify_read_runs
from repro.storage.relation import Relation


@dataclass(frozen=True)
class BPlusTreeConfig:
    """Geometry of the baseline B+-Tree.

    ``clustered=True`` (the default, matching the paper's prototype on its
    ordered/partitioned datasets) stores one rid per *distinct* key — the
    first occurrence — and probes scan forward through the consecutive
    duplicates ("every probe with a positive match will read all the
    consecutive tuples that have the same value", §6.3).  This is what
    makes the paper's ATT1 B+-Tree 11x smaller than one rid per tuple.
    ``clustered=False`` stores every rid, for heap-file-style data.
    """

    key_size: int = 8
    ptr_size: int = 8
    page_size: int = PAGE_SIZE
    fill_factor: float = 0.8      # bulk-load occupancy, typical for B+-Trees
    clustered: bool = True

    def __post_init__(self) -> None:
        if not 0.1 <= self.fill_factor <= 1.0:
            raise ValueError("fill_factor must be in [0.1, 1.0]")

    @property
    def leaf_budget_bytes(self) -> int:
        return int(self.page_size * self.fill_factor)


@dataclass
class BPLeaf:
    """One leaf page: parallel arrays of distinct keys and rid lists."""

    node_id: int
    keys: list = field(default_factory=list)
    ridlists: list[list[int]] = field(default_factory=list)
    next_leaf_id: int | None = None
    prev_leaf_id: int | None = None

    def bytes_used(self, key_size: int, ptr_size: int) -> int:
        nrids = sum(len(r) for r in self.ridlists)
        return len(self.keys) * key_size + nrids * ptr_size

    def find(self, key) -> int | None:
        """Slot of ``key`` or None."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return i
        return None


class BPlusTree(IndexBackend):
    """Classic disk-oriented B+-Tree over a relation column."""

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        config: BPlusTreeConfig | None = None,
        unique: bool = False,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.config = config or BPlusTreeConfig()
        self.unique = unique
        self.store = NodeStore()
        self.inner = InnerTree(
            self.store,
            fanout=fanout_for(self.config.key_size, self.config.ptr_size,
                              self.config.page_size),
        )
        self.leaves: dict[int, BPLeaf] = {}
        # Key span this tree's leaves cover, maintained incrementally
        # (bulk load / from_leaves / insert) so the clustered range-scan
        # clamp stays O(1).  Deletes never shrink it: a too-wide span
        # only weakens the clamp back toward the pre-clamp behaviour.
        self._lo_key: object = None
        self._hi_key: object = None

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def bulk_load(
        cls,
        relation: Relation,
        key_column: str,
        config: BPlusTreeConfig | None = None,
        unique: bool = False,
    ) -> "BPlusTree":
        """Pack leaves at the configured fill factor, then build the directory."""
        tree = cls(relation, key_column, config, unique)
        keys = np.asarray(relation.columns[key_column])
        if len(keys) == 0:
            raise ValueError("cannot bulk load an empty relation")
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError(f"column {key_column!r} must be sorted for bulk load")
        budget = tree.config.leaf_budget_bytes
        ksz, psz = tree.config.key_size, tree.config.ptr_size
        leaf = tree._new_leaf()
        order = [leaf]
        used = 0
        distinct_keys, starts = np.unique(keys, return_index=True)
        counts = np.diff(np.append(starts, len(keys)))
        for key, start, count in zip(distinct_keys, starts, counts):
            if tree.config.clustered:
                remaining = [int(start)]   # first occurrence only
            else:
                remaining = list(range(int(start), int(start + count)))
            while remaining:
                if used + ksz + psz > budget:
                    new = tree._new_leaf()
                    leaf.next_leaf_id = new.node_id
                    new.prev_leaf_id = leaf.node_id
                    leaf = new
                    order.append(leaf)
                    used = 0
                room = max(1, (budget - used - ksz) // psz)
                take, remaining = remaining[:room], remaining[room:]
                leaf.keys.append(as_scalar(key))
                leaf.ridlists.append(take)
                used += ksz + len(take) * psz
        separators = [leaf.keys[0] for leaf in order[1:]]
        tree.inner.build(separators, [leaf.node_id for leaf in order])
        tree._lo_key = order[0].keys[0]
        tree._hi_key = order[-1].keys[-1]
        return tree

    @classmethod
    def from_leaves(
        cls,
        relation: Relation,
        key_column: str,
        leaves: list[BPLeaf],
        config: BPlusTreeConfig | None = None,
        unique: bool = False,
    ) -> "BPlusTree":
        """Build a tree over an existing contiguous run of B+-leaves.

        Shard-safe construction (same contract as
        :meth:`repro.core.bf_tree.BFTree.from_leaves`): takes ownership
        of the leaf objects, reallocates their node ids from this tree's
        store, relinks the chain and severs it at the run's ends, then
        builds a fresh directory.  The donor tree must be discarded.
        """
        if not leaves:
            raise ValueError("from_leaves needs at least one leaf")
        tree = cls(relation, key_column, config, unique)
        for leaf in leaves:
            leaf.node_id = tree.store.allocate()
            tree.leaves[leaf.node_id] = leaf
        separators = [leaf.keys[0] for leaf in leaves[1:]]
        tree.inner.build(separators, link_chain(leaves))
        tree._lo_key = leaves[0].keys[0]
        tree._hi_key = leaves[-1].keys[-1]
        return tree

    def _new_leaf(self) -> BPLeaf:
        leaf = BPLeaf(node_id=self.store.allocate())
        self.leaves[leaf.node_id] = leaf
        return leaf

    # ==================================================================
    # storage binding (same protocol as BFTree)
    # ==================================================================
    def bind(self, stack: StorageStack, warm: bool = False) -> None:
        """Attach to a storage stack; ``warm`` pins internal nodes in memory."""
        super().bind(stack, warm)
        self.inner.bind(stack.index_device, warm)

    def unbind(self) -> None:
        super().unbind()
        self.inner.bind(None)

    # ==================================================================
    # point search
    # ==================================================================
    def search(self, key) -> SearchResult:
        """Descend to the leaf, fetch the rid(s), read the data page(s)."""
        leaf = self._descend_and_read(key)
        if leaf is None:
            return SearchResult(found=False)
        slot = leaf.find(key)
        self._count("key_comparisons", math.log2(max(2, len(leaf.keys) or 2)))
        if slot is None:
            return SearchResult(found=False)
        tids = list(leaf.ridlists[slot])
        # A heavy rid list may span leaves in both directions (descent is
        # rightmost-biased, so preceding chunks live in earlier leaves).
        current = leaf
        while not self.unique and current.prev_leaf_id is not None:
            prev = self.leaves[current.prev_leaf_id]
            if prev.keys and prev.keys[-1] == key:
                self.store.read(prev.node_id)
                tids.extend(prev.ridlists[-1])
                current = prev
            else:
                break
        current = leaf
        while not self.unique and current.next_leaf_id is not None:
            nxt = self.leaves[current.next_leaf_id]
            if nxt.keys and nxt.keys[0] == key:
                self.store.read(nxt.node_id, sequential=True)
                tids.extend(nxt.ridlists[0])
                current = nxt
            else:
                break
        tids.sort()
        # Clustered, a non-unique key's rids are first occurrences; the
        # fetch continues through following pages while they still lead
        # with ``key`` — the paper's probe for consecutive duplicates.
        if self.config.clustered and not self.unique:
            tids, pages = self.relation.fetch_clustered(
                self.key_column, key, tids, self._data_device)
        else:
            pages = self.relation.fetch_tids(self.key_column, key, tids,
                                             self._data_device, self.unique)
        return SearchResult.fetched(tids, pages)

    # search_many / insert_many / delete_many come from IndexBackend:
    # the exact index has no per-filter fan-out to vectorize — a probe is
    # one descent, one binary search and the rid fetch — so the generic
    # scalar loop *is* the batch engine, with identical I/O charging and
    # per-op latency_sink accounting to BFTree's vectorized paths.

    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=True, mutable=True, scannable=True,
                            unique=self.unique)

    supports_sharding = True

    def shard_leaves(self) -> list:
        """Leaf chain in key order, ready for ShardedIndex slicing."""
        # The live chain, not the build-time order: leaf splits since
        # the build add leaves that order lacks.
        return self.leaves_in_order()

    def shard_from_leaves(self, run: list) -> "BPlusTree":
        return BPlusTree.from_leaves(
            self.relation, self.key_column, run,
            config=self.config, unique=self.unique,
        )

    @staticmethod
    def shard_leaf_span(leaf) -> tuple:
        return (leaf.keys[0], leaf.keys[-1])

    @staticmethod
    def shard_cut_spans(left, right) -> bool:
        if not left.keys or not right.keys:
            return True
        return right.keys[0] == left.keys[-1]

    # ==================================================================
    # checkpoint hooks (repro.persist)
    # ==================================================================
    def snapshot_state(self) -> dict:
        """Structural dump: directory plus the exact leaf chain.

        Node ids and the allocator cursor are preserved so the restored
        tree charges identical simulated I/O (same descent paths, same
        leaf page ids) as the original.
        """
        from dataclasses import fields

        return {
            "format": "bplus-tree",
            "column": self.key_column,
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(self.config)},
            "unique": self.unique,
            "lo_key": self._lo_key,
            "hi_key": self._hi_key,
            "inner": self.inner.state_dict(),
            "leaves": [
                {"node_id": leaf.node_id, "keys": list(leaf.keys),
                 "ridlists": [list(r) for r in leaf.ridlists]}
                for leaf in self.leaves_in_order()
            ],
        }

    def restore_state(self, state: dict) -> None:
        if state.get("format") != "bplus-tree":
            raise ValueError(
                f"BPlusTree cannot restore snapshot format "
                f"{state.get('format')!r}"
            )
        self.config = BPlusTreeConfig(**state["config"])
        self.unique = bool(state["unique"])
        self._lo_key = state["lo_key"]
        self._hi_key = state["hi_key"]
        self.leaves = {}
        chain: list[BPLeaf] = []
        for rec in state["leaves"]:
            leaf = BPLeaf(
                node_id=int(rec["node_id"]),
                keys=list(rec["keys"]),
                ridlists=[[int(t) for t in rids] for rids in rec["ridlists"]],
            )
            self.leaves[leaf.node_id] = leaf
            chain.append(leaf)
        link_chain(chain)
        self.inner.load_state(state["inner"])
        maybe_check(self)

    def _descend_and_read(self, key) -> BPLeaf | None:
        try:
            leaf_id, path = self.inner.route(key)
        except LookupError:
            return None
        self.inner.charge_path(path)
        self.store.read(leaf_id)
        return self.leaves[leaf_id]

    # ==================================================================
    # updates
    # ==================================================================
    def insert(self, key, tid: int) -> None:
        """Insert one (key, rid) entry, splitting the leaf when overfull."""
        leaf = self._descend_and_read(key)
        if leaf is None:
            raise LookupError("insert into an unbuilt tree; bulk_load first")
        slot = leaf.find(key)
        if slot is not None:
            leaf.ridlists[slot].append(tid)
        else:
            i = bisect.bisect_left(leaf.keys, key)
            leaf.keys.insert(i, key)
            leaf.ridlists.insert(i, [tid])
        if self._lo_key is None or key < self._lo_key:
            self._lo_key = key
        if self._hi_key is None or key > self._hi_key:
            self._hi_key = key
        self.store.write(leaf.node_id)
        ksz, psz = self.config.key_size, self.config.ptr_size
        if leaf.bytes_used(ksz, psz) > self.config.page_size:
            self._split_leaf(leaf)

    def delete(self, key, tid: int | None = None) -> DeleteOutcome:
        """Remove one rid (or the whole entry when ``tid`` is None).

        B+-Tree deletes are physical (the entry leaves the leaf), so the
        outcome is never ``tombstoned``.
        """
        leaf = self._descend_and_read(key)
        if leaf is None:
            return DeleteOutcome(removed=False)
        slot = leaf.find(key)
        if slot is None:
            return DeleteOutcome(removed=False)
        if tid is None:
            leaf.keys.pop(slot)
            leaf.ridlists.pop(slot)
        else:
            try:
                leaf.ridlists[slot].remove(tid)
            except ValueError:
                return DeleteOutcome(removed=False)
            if not leaf.ridlists[slot]:
                leaf.keys.pop(slot)
                leaf.ridlists.pop(slot)
        self.store.write(leaf.node_id)
        return DeleteOutcome(removed=True)

    def _split_leaf(self, leaf: BPLeaf) -> None:
        mid = max(1, len(leaf.keys) // 2)
        right = self._new_leaf()
        right.keys = leaf.keys[mid:]
        right.ridlists = leaf.ridlists[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.ridlists = leaf.ridlists[:mid]
        right.next_leaf_id = leaf.next_leaf_id
        right.prev_leaf_id = leaf.node_id
        if right.next_leaf_id is not None:
            self.leaves[right.next_leaf_id].prev_leaf_id = right.node_id
        leaf.next_leaf_id = right.node_id
        self.store.write(leaf.node_id)
        self.store.write(right.node_id)
        # split_child handles both shapes itself: a single-leaf root grows
        # its first internal node, an existing directory gains a fence.
        self.inner.split_child(leaf.node_id, right.keys[0], right.node_id)

    # ==================================================================
    # range scan
    # ==================================================================
    def range_scan(self, lo, hi) -> RangeScanResult:
        """Collect rids for keys in [lo, hi]; read exactly their data pages.

        A batch of one through :meth:`range_scan_many`.
        """
        return self.range_scan_many([(lo, hi)])[0]

    def range_scan_many(self, windows,
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]:
        """Range scans over a batch of ``(lo, hi)`` windows (same protocol
        as BF-Tree's :meth:`~repro.core.bf_tree.BFTree.range_scan_many`).

        Each window walks the leaf chain from ``lo`` and reads exactly
        the data pages holding its keys: the rid lists' pages on an
        unclustered tree, the contiguous span of the sorted column on a
        clustered one (clamped to the keys this tree's leaves hold, so a
        shard's scan legs never count a neighbour's boundary tuples).
        Result ``j`` depends on ``windows[j]`` alone — a batch matches
        one batch of one per window in results and IOStats.  Windows are
        routed in one pass over the directory's cached routing table, the
        clustered path skips the per-rid leaf walk, and data-page runs
        are charged through :meth:`Device.read_batch`.  ``latency_sink``
        receives one simulated per-scan latency per window.  Invalid
        windows (``lo > hi``) are rejected up front, before any charges
        land.
        """
        wins = normalize_scan_windows(windows)
        n = len(wins)
        results = [
            RangeScanResult(matches=0, pages_read=0, leaves_visited=0)
            for _ in range(n)
        ]
        stack = self.stack if latency_sink is not None else None
        latencies = [0.0] * n
        try:
            targets = self.inner.route_batch([lo for lo, _ in wins])
        except LookupError:
            if latency_sink is not None:
                latency_sink.extend(latencies)
            return results
        paths = self.inner.routing_table().paths
        device = self._data_device
        values = np.asarray(self.relation.columns[self.key_column])
        for j in range(n):
            lo, hi = wins[j]
            res = results[j]
            start_t = stack.stats.mark() if stack is not None else ()
            leaf_id = targets[j]
            self.inner.charge_path(paths[leaf_id])
            matches = 0
            pages: set[int] = set()
            current: BPLeaf | None = self.leaves[leaf_id]
            while current is not None:
                self.store.read(current.node_id,
                                sequential=res.leaves_visited > 0)
                res.leaves_visited += 1
                if self.config.clustered:
                    # Leaf keys are sorted, so "some key > hi" (the
                    # walk's stop test) is just the last key.
                    stop = bool(current.keys) and current.keys[-1] > hi
                else:
                    stop = False
                    for key, rids in zip(current.keys, current.ridlists):
                        if key > hi:
                            stop = True
                            break
                        if key >= lo:
                            matches += len(rids)
                            pages.update(
                                self.relation.page_of(t) for t in rids
                            )
                if stop or current.next_leaf_id is None:
                    break
                current = self.leaves[current.next_leaf_id]
            if self.config.clustered:
                c_lo, c_hi = lo, hi
                if self._lo_key is not None:
                    c_lo = max(lo, self._lo_key)
                    c_hi = min(hi, self._hi_key)
                if c_lo > c_hi:
                    if stack is not None:
                        latencies[j] = stack.since(start_t)
                    continue
                first = int(np.searchsorted(values, c_lo, side="left"))
                last = int(np.searchsorted(values, c_hi, side="right")) - 1
                if last < first:
                    if stack is not None:
                        latencies[j] = stack.since(start_t)
                    continue
                first_page = self.relation.page_of(first)
                last_page = self.relation.page_of(last)
                npages = last_page - first_page + 1
                if device is not None:
                    device.read_batch(
                        *classify_read_runs([(first_page, npages)])[:2])
                res.matches = last - first + 1
                res.pages_read = npages
            else:
                ordered = sorted(pages)
                if device is not None and ordered:
                    n_random, n_seq, _ = classify_read_runs(
                        [(pid, 1) for pid in ordered]
                    )
                    device.read_batch(n_random, n_seq)
                res.matches = matches
                res.pages_read = len(ordered)
            if stack is not None:
                latencies[j] = stack.since(start_t)
        if latency_sink is not None:
            latency_sink.extend(latencies)
        return results

    # ==================================================================
    # size accounting
    # ==================================================================
    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def size_pages(self) -> int:
        return self.n_leaves + self.inner.n_internal_nodes

    @property
    def size_bytes(self) -> int:
        return self.size_pages * self.config.page_size

    @property
    def height(self) -> int:
        return self.inner.height

    def leaves_in_order(self) -> list[BPLeaf]:
        """Leaves left-to-right following next pointers."""
        return ordered_chain(self.leaves,
                             lambda l: l.keys[0] if l.keys else 0)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BPlusTree(column={self.key_column!r}, leaves={self.n_leaves}, "
            f"height={self.height}, pages={self.size_pages})"
        )
