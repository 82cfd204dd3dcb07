"""In-memory hash index baseline (paper §6: "an in-memory hash index").

A point probe costs one hash lookup (CPU) plus the data-page fetches for
the matching rids.  The paper only evaluates the hash index memory-
resident, so there is no device-resident variant; the size accounting
reports the memory footprint a bucketized hash table would need, for the
capacity-gain comparisons.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.sanitize import maybe_check
from repro.api.protocol import Capabilities, IndexBackend
from repro.api.results import DeleteOutcome, SearchResult, as_scalar
from repro.storage.device import PAGE_SIZE
from repro.storage.relation import Relation


class HashIndex(IndexBackend):
    """Exact key -> rid-list map held in main memory.

    Conforms to the unified :class:`repro.api.Index` protocol: batch
    operations come from the generic scalar-loop fallback, deletes
    return :class:`~repro.api.DeleteOutcome`, and range scans raise
    :class:`~repro.api.UnsupportedOperationError` (a hash index is
    unordered and unscannable).
    """

    #: Typical open-addressing overhead on top of raw entry bytes.
    LOAD_FACTOR = 0.7

    def __init__(
        self,
        relation: Relation,
        key_column: str,
        unique: bool = False,
        key_size: int = 8,
        ptr_size: int = 8,
    ) -> None:
        self.relation = relation
        self.key_column = key_column
        self.unique = unique
        self.key_size = key_size
        self.ptr_size = ptr_size
        self._map: dict[object, list[int]] = defaultdict(list)

    @classmethod
    def build(
        cls,
        relation: Relation,
        key_column: str,
        unique: bool = False,
    ) -> "HashIndex":
        """Hash every (key, tid) pair of the column."""
        index = cls(relation, key_column, unique)
        values = np.asarray(relation.columns[key_column])
        for tid, key in enumerate(values):
            index._map[as_scalar(key)].append(tid)
        return index

    # ------------------------------------------------------------------
    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=False, mutable=True, scannable=False,
                            unique=self.unique)

    # ------------------------------------------------------------------
    def search(self, key) -> SearchResult:
        """Constant-time probe, then fetch matching data pages."""
        self._count("hash_probes")
        tids = self._map.get(key)
        if not tids:
            return SearchResult(found=False)
        pages = self.relation.fetch_tids(self.key_column, key, tids,
                                         self._data_device, self.unique)
        return SearchResult.fetched(list(tids), pages)

    def insert(self, key, tid: int) -> None:
        self._map[key].append(tid)

    def delete(self, key, tid: int | None = None) -> DeleteOutcome:
        """Physical removal from the map; never tombstoned."""
        if key not in self._map:
            return DeleteOutcome(removed=False)
        if tid is None:
            del self._map[key]
            return DeleteOutcome(removed=True)
        try:
            self._map[key].remove(tid)
        except ValueError:
            return DeleteOutcome(removed=False)
        if not self._map[key]:
            del self._map[key]
        return DeleteOutcome(removed=True)

    # ------------------------------------------------------------------
    # checkpoint hooks (repro.persist): key-dump fallback — a hash index
    # has no structural identity beyond its entries, so the dump *is*
    # the complete state.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        items = list(self._map.items())
        return {
            "format": "hash-keydump",
            "column": self.key_column,
            "unique": self.unique,
            "key_size": self.key_size,
            "ptr_size": self.ptr_size,
            "keys": [k for k, _ in items],
            "tids": [list(v) for _, v in items],
        }

    def restore_state(self, state: dict) -> None:
        if state.get("format") != "hash-keydump":
            raise ValueError(
                f"HashIndex cannot restore snapshot format "
                f"{state.get('format')!r}"
            )
        self.unique = bool(state["unique"])
        self.key_size = int(state["key_size"])
        self.ptr_size = int(state["ptr_size"])
        self._map = defaultdict(list)
        for key, tids in zip(state["keys"], state["tids"]):
            self._map[key] = [int(t) for t in tids]
        maybe_check(self)

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        return len(self._map)

    @property
    def size_bytes(self) -> int:
        """Memory a bucketized table would occupy at the load factor."""
        entries = sum(len(v) for v in self._map.values())
        raw = self.n_keys * self.key_size + entries * self.ptr_size
        return int(raw / self.LOAD_FACTOR)

    @property
    def size_pages(self) -> int:
        return -(-self.size_bytes // PAGE_SIZE)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HashIndex(keys={self.n_keys}, pages={self.size_pages})"
