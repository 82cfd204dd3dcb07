"""SILT baseline (Lim et al., SOSP 2011) — memory-efficient key-value store.

SILT's *sorted store* keeps all keys in sorted order on flash, indexed by
an entropy-coded trie that costs ~0.4 bytes of DRAM per key and resolves
a key to the exact flash page, so a lookup needs exactly one flash read.
The BF-Tree paper uses SILT's analytical model in §5: point probes are
~5% faster than a B+-Tree when the trie is cached and ~32% slower when
the trie itself must be fetched, with an index ~28% of the B+-Tree's
size.  SILT supports only point queries — no range scans — which the
paper stresses as its limitation.

:class:`SiltStore` is a working simplified sorted store: a sorted array
on the index device plus an in-memory trie surrogate (a page-granular
offset table), preserving the one-flash-read lookup and the small memory
footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api.protocol import Capabilities, IndexBackend
from repro.api.results import SearchResult
from repro.storage.device import PAGE_SIZE
from repro.storage.relation import Relation


@dataclass(frozen=True)
class SiltConfig:
    """Geometry of the simplified SILT sorted store."""

    key_size: int = 8
    ptr_size: int = 8
    page_size: int = PAGE_SIZE
    trie_bytes_per_key: float = 0.4   # SILT's entropy-coded trie budget
    #: Keys in the sorted store compress well (shared prefixes); SILT's
    #: evaluation yields roughly this fraction of raw key bytes on flash.
    key_compression: float = 0.5
    trie_cached: bool = True          # §5: cached vs loaded trie

    @property
    def entries_per_page(self) -> int:
        entry = self.key_size * self.key_compression + self.ptr_size
        return max(1, int(self.page_size / entry))


class SiltStore(IndexBackend):
    """Sorted store + in-memory trie; point queries only.

    Conforms to the unified :class:`repro.api.Index` protocol as an
    immutable, unscannable backend: ``search``/``search_many`` work,
    while ``insert``/``delete``/``range_scan`` raise
    :class:`~repro.api.UnsupportedOperationError` — SILT's sorted store
    is write-once and supports only point queries, the limitation the
    BF-Tree paper stresses in §5.
    """

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        config: SiltConfig | None = None,
        unique: bool = True,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.config = config or SiltConfig()
        self.unique = unique
        self._keys = np.empty(0)
        self._tids = np.empty(0, dtype=np.int64)

    @classmethod
    def build(
        cls,
        relation: Relation,
        key_column: str,
        config: SiltConfig | None = None,
        unique: bool = True,
    ) -> "SiltStore":
        """Sort all (key, tid) pairs into the store."""
        store = cls(relation, key_column, config, unique)
        keys = np.asarray(relation.columns[key_column])
        order = np.argsort(keys, kind="stable")
        store._keys = keys[order]
        store._tids = order.astype(np.int64)
        return store

    # ------------------------------------------------------------------
    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=True, mutable=False, scannable=False,
                            unique=self.unique)

    # ------------------------------------------------------------------
    def search(self, key) -> SearchResult:
        """Trie walk (CPU, or one read when uncached) + one store read."""
        # Trie resolution.
        self._count("key_comparisons", self.config.key_size * 8)
        if not self.config.trie_cached and self._index_device is not None:
            self._index_device.read_page(0, sequential=False)
        i = int(np.searchsorted(self._keys, key, side="left"))
        if i >= len(self._keys) or self._keys[i] != key:
            return SearchResult(found=False)
        # One read into the sorted store page the trie resolved to.
        page_off = 1 + i // self.config.entries_per_page
        if self._index_device is not None:
            self._index_device.read_page(page_off, sequential=False)
        j = i
        tids = []
        while j < len(self._keys) and self._keys[j] == key:
            tids.append(int(self._tids[j]))
            j += 1
            if self.unique:
                break
        tids.sort()
        pages = self.relation.fetch_tids(self.key_column, key, tids,
                                         self._data_device, self.unique)
        return SearchResult.fetched(tids, pages)

    # insert / delete / range_scan: inherited capability-gated defaults
    # raise UnsupportedOperationError (a NotImplementedError subclass) —
    # SILT supports only point queries (paper §5).

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return len(self._keys)

    @property
    def store_pages(self) -> int:
        return max(1, math.ceil(self.n_entries / self.config.entries_per_page))

    @property
    def trie_bytes(self) -> int:
        return int(self.n_entries * self.config.trie_bytes_per_key)

    @property
    def size_bytes(self) -> int:
        return self.store_pages * self.config.page_size + self.trie_bytes

    @property
    def size_pages(self) -> int:
        return -(-self.size_bytes // self.config.page_size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SiltStore(entries={self.n_entries}, pages={self.size_pages})"
