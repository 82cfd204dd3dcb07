"""FD-Tree baseline (Li et al., PVLDB 2010) — flash-aware tree index.

The FD-Tree keeps a small *head tree* in memory and a cascade of sorted
*levels* L1..Ln on flash, each ``size_ratio`` times larger than the one
above.  Fence pointers (fractional cascading) let a point search read
exactly one page per level; inserts go to the head tree and are merged
downward in bulk, converting random writes into sequential ones — the
logarithmic method.

The BF-Tree paper uses FD-Tree two ways: analytically in §5 (same size as
a vanilla B+-Tree, competitive point-probe latency when the optimal
``k`` is chosen) and experimentally in §6.5 against the smart-home
dataset with warm caches.  This is a working implementation: bulk load,
point search with one page read per non-empty level, inserts with
cascading merges, plus the size-ratio chooser from the FD-Tree paper's
cost model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.sanitize import maybe_check
from repro.api.protocol import Capabilities, IndexBackend
from repro.api.results import DeleteOutcome, SearchResult, as_scalar
from repro.storage.config import StorageStack
from repro.storage.device import PAGE_SIZE
from repro.storage.relation import Relation


@dataclass(frozen=True)
class FDTreeConfig:
    """FD-Tree tuning parameters."""

    key_size: int = 8
    ptr_size: int = 8
    page_size: int = PAGE_SIZE
    size_ratio: int = 16          # k: growth factor between adjacent levels
    head_pages: int = 1           # in-memory head tree capacity, in pages
    #: The original FD-Tree is a key-value index: one entry per tuple.
    #: ``clustered=True`` instead stores one entry per distinct key (first
    #: occurrence) and scans forward through consecutive duplicates, like
    #: the clustered B+-Tree baseline.  The paper benchmarks the original
    #: code (§6.5), so per-tuple is the default.
    clustered: bool = False

    @property
    def entries_per_page(self) -> int:
        return self.page_size // (self.key_size + self.ptr_size)


class FDTree(IndexBackend):
    """Head tree + logarithmically growing sorted levels.

    Conforms to the unified :class:`repro.api.Index` protocol: batch
    operations come from the generic scalar-loop fallback, deletes
    insert tombstone records and return
    :class:`~repro.api.DeleteOutcome`, and range scans raise
    :class:`~repro.api.UnsupportedOperationError` (not implemented
    here; the paper only evaluates FD-Tree point probes).
    """

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        config: FDTreeConfig | None = None,
        unique: bool = False,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.config = config or FDTreeConfig()
        self.unique = unique
        self.head: list[tuple[object, int]] = []      # in-memory, sorted
        self.levels: list[list[tuple[object, int]]] = []  # L1.. sorted runs
        self._level_page_base: list[int] = []         # page-id offsets
        self._warm = False

    # ==================================================================
    # construction
    # ==================================================================
    @classmethod
    def bulk_load(
        cls,
        relation: Relation,
        key_column: str,
        config: FDTreeConfig | None = None,
        unique: bool = False,
    ) -> "FDTree":
        """Load all entries into the deepest level (packed, sorted)."""
        tree = cls(relation, key_column, config, unique)
        keys = np.asarray(relation.columns[key_column])
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError(f"column {key_column!r} must be sorted for bulk load")
        if tree.config.clustered:
            distinct, starts = np.unique(keys, return_index=True)
            entries = [(as_scalar(k), int(t)) for k, t in zip(distinct, starts)]
        else:
            entries = [(as_scalar(k), tid) for tid, k in enumerate(keys)]
        # Entries land in the shallowest level that fits them; the levels
        # above hold only fences, but a probe still reads one page in each
        # (fractional cascading descends level by level).
        depth = 1
        while tree._level_capacity(depth - 1) < len(entries):
            depth += 1
        tree.levels = [[] for _ in range(depth - 1)] + [entries]
        tree._rebase_pages()
        return tree

    def _level_capacity(self, level_idx: int) -> int:
        """Entries level ``level_idx`` holds (head * ratio^(idx+1))."""
        return (
            self.config.head_pages
            * self.config.entries_per_page
            * self.config.size_ratio ** (level_idx + 1)
        )

    def _rebase_pages(self) -> None:
        """Assign contiguous index-page ranges to each level."""
        self._level_page_base = []
        base = self.config.head_pages
        for level in self.levels:
            self._level_page_base.append(base)
            base += self._level_pages(level)

    def _level_pages(self, level: list) -> int:
        return max(1, -(-len(level) // self.config.entries_per_page))

    # ==================================================================
    # storage binding
    # ==================================================================
    def bind(self, stack: StorageStack, warm: bool = False) -> None:
        """Attach devices.  Warm caches pin every level's fence path pages.

        With warm caches the FD-Tree paper (and §6.5) still charges one
        read for the target page of each level; only the head tree and
        fences are memory-resident, which they are here by construction.
        """
        super().bind(stack, warm)
        self._warm = warm

    def unbind(self) -> None:
        super().unbind()
        self._warm = False

    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=True, mutable=True, scannable=False,
                            unique=self.unique)

    # ==================================================================
    # point search
    # ==================================================================
    @staticmethod
    def _absorb(raw: list[int], tids: list[int], dead: set[int]) -> None:
        """Fold one level's matches into the live/dead sets.

        Tombstones (negative records) register their victim as dead;
        a live tid already absorbed from a *shallower* (more recent)
        level stays live — shallowness is recency, so an entry
        reinserted above a deeper tombstone survives it.
        """
        for t in raw:
            if t < 0:
                dead.add(-t - 1)
            elif t not in dead:
                tids.append(t)

    def _descend_live(self, key, stop_early: bool = False) -> list[int]:
        """The probe descent: head + one page read per level, absorbing
        tombstones shallow-to-deep; returns the live tids of ``key``.

        Fence-only levels (created by bulk load or left behind by
        merges) still cost a read each: the fences live in their pages
        and the descent passes through them.  ``stop_early`` stops at
        the first live match (unique-key probes).  Shared by
        :meth:`search` and :meth:`delete`, which both pay this descent.
        """
        tids: list[int] = []
        dead: set[int] = set()
        self._count("key_comparisons", math.log2(max(2, len(self.head) or 2)))
        self._absorb([t for k, t in self._head_matches(key)], tids, dead)
        deepest = max(
            (i for i, level in enumerate(self.levels) if level), default=-1
        )
        for idx in range(deepest + 1):
            level = self.levels[idx]
            if level:
                matches, page_off = self._level_matches(level, key)
            else:
                matches, page_off = [], 0   # fence-only level
            skip_read = not level and self._warm
            if self._index_device is not None and not skip_read:
                self._index_device.read_page(
                    self._level_page_base[idx] + page_off, sequential=False
                )
            self._count("key_comparisons",
                        math.log2(max(2, self.config.entries_per_page)))
            self._absorb(matches, tids, dead)
            if tids and stop_early:
                break
        return sorted(set(tids))

    def search(self, key) -> SearchResult:
        """Binary-search the head, then one page read per level."""
        tids = self._descend_live(key, stop_early=self.unique)
        if not tids:
            return SearchResult(found=False)
        if self.config.clustered and not self.unique:
            # Scan forward from the first occurrence through the duplicates.
            tids, pages = self.relation.fetch_clustered(
                self.key_column, key, [min(tids)], self._data_device)
        else:
            pages = self.relation.fetch_tids(self.key_column, key, tids,
                                             self._data_device, self.unique)
        return SearchResult.fetched(tids, pages)

    def _head_matches(self, key) -> list[tuple[object, int]]:
        # (key,) sorts before (key, t) for every t, so the scan starts
        # at the first record of the key — tombstones (large negative
        # tids) included, which bisecting from (key, -1) would skip.
        i = bisect.bisect_left(self.head, (key,))
        out = []
        while i < len(self.head) and self.head[i][0] == key:
            out.append(self.head[i])
            i += 1
        return out

    def _level_matches(self, level: list, key) -> tuple[list[int], int]:
        """(matching tids, page offset within the level) via fences."""
        i = bisect.bisect_left(level, (key,))
        page_off = min(i, len(level) - 1) // self.config.entries_per_page
        matches = []
        while i < len(level) and level[i][0] == key:
            matches.append(level[i][1])
            i += 1
        return matches, page_off

    # ==================================================================
    # updates: logarithmic merges
    # ==================================================================
    def insert(self, key, tid: int) -> None:
        """Insert into the head tree; cascade merges when levels overflow.

        A pending tombstone for the same record (a delete not yet merged
        out of the head) is annihilated instead: the reinsert cancels it,
        so the entry stays visible (recency wins).
        """
        tid = int(tid)
        tomb = (key, -tid - 1)
        i = bisect.bisect_left(self.head, tomb)
        if i < len(self.head) and self.head[i] == tomb:
            self.head.pop(i)
        bisect.insort(self.head, (key, tid))
        head_capacity = self.config.head_pages * self.config.entries_per_page
        if len(self.head) > head_capacity:
            self._merge_down(0, self.head)
            self.head = []
            self._rebase_pages()

    def _merge_down(self, level_idx: int, incoming: list) -> None:
        """Merge ``incoming`` into level ``level_idx`` (creating it if new)."""
        while len(self.levels) <= level_idx:
            self.levels.append([])
        target = self.levels[level_idx]
        merged = self._sorted_merge(target, incoming)
        capacity = self._level_capacity(level_idx)
        if len(merged) > capacity and level_idx + 1 < 64:
            self.levels[level_idx] = []
            self._merge_down(level_idx + 1, merged)
        else:
            self.levels[level_idx] = merged
        # Merges write sequentially; charge the written pages.
        if self._index_device is not None:
            for _ in range(self._level_pages(merged)):
                self._index_device.write_page(0, sequential=True)

    @staticmethod
    def _sorted_merge(a: list, b: list) -> list:
        """Merge two sorted runs, annihilating tombstone/entry pairs.

        When a tombstone ``(key, -t-1)`` and its entry ``(key, t)`` meet
        in the merged run, both are dropped — the FD-Tree's merge-time
        delete.  Without it a delete that later migrated below a
        reinserted entry would mask it again, breaking the recency
        semantics the probe path's shallow-to-deep absorb implements.
        Exact duplicate records collapse (they are one logical entry).
        """
        merged: list = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] <= b[j]:
                merged.append(a[i]); i += 1
            else:
                merged.append(b[j]); j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        out: list = []
        start = 0
        while start < len(merged):
            end = start
            key = merged[start][0]
            while end < len(merged) and merged[end][0] == key:
                end += 1
            group = merged[start:end]
            tombs = {-t - 1 for k, t in group if t < 0}
            live = {t for k, t in group if t >= 0}
            matched = tombs & live
            seen: set = set()
            for record in group:
                t = record[1]
                victim = -t - 1 if t < 0 else t
                if victim in matched or record in seen:
                    continue
                seen.add(record)
                out.append(record)
            start = end
        return out

    def delete(self, key, tid: int | None = None) -> DeleteOutcome:
        """FD-Trees delete by inserting tombstone records (the
        logarithmic method's write-optimized delete).

        ``tid=None`` tombstones every live entry of ``key``.  Finding
        the victims pays the same descent a probe pays (one page read
        per level — the liveness check inspects the same structures
        :meth:`search` charges for).  The outcome is ``tombstoned``
        whenever something was removed — the entries stay physically
        present until a merge annihilates them.
        """
        live = self._descend_live(key, stop_early=self.unique)
        if tid is None:
            victims = live
        else:
            victims = [int(tid)] if int(tid) in live else []
        if not victims:
            return DeleteOutcome(removed=False)
        for t in victims:
            bisect.insort(self.head, (key, -t - 1))  # negative tid = tombstone
        return DeleteOutcome(removed=True, tombstoned=True)

    # ==================================================================
    # checkpoint hooks (repro.persist)
    # ==================================================================
    def snapshot_state(self) -> dict:
        """Structural dump: the head run plus every on-flash level.

        Tombstones (negative tids) serialize as-is, so a restored tree
        keeps the exact merge/annihilation state — recency semantics
        and per-level page charges are bit-identical.
        """
        from dataclasses import fields

        return {
            "format": "fd-tree",
            "column": self.key_column,
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(self.config)},
            "unique": self.unique,
            "head": [[k, t] for k, t in self.head],
            "levels": [[[k, t] for k, t in level] for level in self.levels],
        }

    def restore_state(self, state: dict) -> None:
        if state.get("format") != "fd-tree":
            raise ValueError(
                f"FDTree cannot restore snapshot format "
                f"{state.get('format')!r}"
            )
        self.config = FDTreeConfig(**state["config"])
        self.unique = bool(state["unique"])
        self.head = [(k, int(t)) for k, t in state["head"]]
        self.levels = [
            [(k, int(t)) for k, t in level] for level in state["levels"]
        ]
        self._rebase_pages()
        maybe_check(self)

    # ==================================================================
    # size accounting
    # ==================================================================
    @property
    def n_levels(self) -> int:
        """Levels a probe descends through (fence-only ones included)."""
        deepest = max(
            (i for i, level in enumerate(self.levels) if level), default=-1
        )
        return deepest + 1

    @property
    def size_pages(self) -> int:
        pages = self.config.head_pages
        deepest = self.n_levels
        for level in self.levels[:deepest]:
            pages += self._level_pages(level)
        return pages

    @property
    def size_bytes(self) -> int:
        return self.size_pages * self.config.page_size

    @property
    def height(self) -> int:
        """Probe depth: head + one read per non-empty level."""
        return 1 + self.n_levels

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FDTree(levels={self.n_levels}, head={len(self.head)}, "
            f"pages={self.size_pages})"
        )
