"""Binary and interpolation search directly on the sorted data file (§7).

The paper positions these as the index-free alternatives for fully sorted
data: binary search costs ``log2(N)`` random page reads, interpolation
search ``log2(log2(N))`` *for uniformly distributed keys* [36].  Both are
implemented here as page-granular searches over a
:class:`~repro.storage.relation.Relation`, charging the data device one
random read per inspected page — the honest I/O cost of an unindexed
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.protocol import Capabilities, IndexBackend
from repro.api.results import SearchResult
from repro.storage.relation import Relation


@dataclass
class SortedFileSearch(IndexBackend):
    """Index-free point search on a relation sorted by ``key_column``.

    Conforms to the unified :class:`repro.api.Index` protocol as an
    immutable, unscannable backend (the data file cannot be written
    through an index that does not exist); ``search`` defaults to
    binary search, with :meth:`interpolation_search` as the alternative
    entry point.
    """

    relation: Relation
    key_column: str
    unique: bool = False

    def __post_init__(self) -> None:
        keys = np.asarray(self.relation.columns[self.key_column])
        if np.any(keys[1:] < keys[:-1]):
            raise ValueError(
                f"column {self.key_column!r} must be fully sorted for "
                "binary/interpolation search"
            )

    def capabilities(self) -> Capabilities:
        return Capabilities(ordered=True, mutable=False, scannable=False,
                            unique=self.unique)

    # ------------------------------------------------------------------
    def _page_first_key(self, pid: int):
        return self.relation.columns[self.key_column][
            self.relation.page_bounds(pid)[0]]

    def _page_last_key(self, pid: int):
        return self.relation.columns[self.key_column][
            self.relation.page_bounds(pid)[1] - 1]

    def _count_matches(self, pids: list[int], key, stop_early: bool) -> int:
        """Scan the fetched pages ``pids`` for ``key`` (charges CPU)."""
        scan = self.relation.scan_keys(self.key_column, [key] * len(pids),
                                       pids, stop_early)
        if self._data_device is not None:
            self._data_device.stats.tuples_scanned += int(
                scan.examined.sum())
        return int(scan.matches.sum())

    # ------------------------------------------------------------------
    def binary_search(self, key) -> SearchResult:
        """Page-granular binary search: log2(npages) random reads."""
        return self._page_search(key, lambda lo, hi: (lo + hi) // 2)

    def interpolation_search(self, key) -> SearchResult:
        """Interpolated page probing: loglog(N) reads on uniform data [36]."""
        last = self.relation.npages - 1
        if key < self._page_first_key(0) or key > self._page_last_key(last):
            return SearchResult(found=False)

        def interpolate(lo: int, hi: int) -> int:
            lo_key = float(self._page_first_key(lo))
            span = float(self._page_last_key(hi)) - lo_key
            if span <= 0:
                return lo
            mid = lo + int((float(key) - lo_key) / span * (hi - lo))
            return min(max(mid, lo), hi)

        return self._page_search(key, interpolate)

    def _page_search(self, key, pick_page) -> SearchResult:
        """Read the page ``pick_page(lo, hi)`` names (one random read)
        until its key range holds ``key`` or the window is empty."""
        lo, hi = 0, self.relation.npages - 1
        pages_inspected = 0
        while lo <= hi:
            mid = pick_page(lo, hi)
            if self._data_device is not None:
                self._data_device.read_page(mid, sequential=False)
            pages_inspected += 1
            if key < self._page_first_key(mid):
                hi = mid - 1
            elif key > self._page_last_key(mid):
                lo = mid + 1
            else:
                result = self._collect_matches_in_place(mid, key)
                result.pages_read += pages_inspected - 1
                return result
        return SearchResult(found=False, pages_read=pages_inspected)

    search = binary_search  # default probe entry point

    # ------------------------------------------------------------------
    def _collect_matches_in_place(self, pid: int, key) -> SearchResult:
        """Count matches on the already-fetched ``pid`` plus spillover pages.

        Duplicates are contiguous, so they spill onto the neighbours whose
        boundary key is ``key``: each page to the left is read random,
        those to the right sequentially.
        """
        matches = self._count_matches([pid], key, stop_early=self.unique)
        if not matches or self.unique:
            return SearchResult(found=matches > 0, matches=matches,
                                pages_read=1)
        left = right = pid
        while left > 0 and self._page_last_key(left - 1) == key:
            left -= 1
        while (right + 1 < self.relation.npages
               and self._page_first_key(right + 1) == key):
            right += 1
        spill = [*range(left, pid), *range(pid + 1, right + 1)]
        if self._data_device is not None and spill:
            self._data_device.read_batch(pid - left, right - pid)
        matches += self._count_matches(spill, key, stop_early=True)
        return SearchResult(found=True, matches=matches,
                            pages_read=1 + len(spill))

    # ------------------------------------------------------------------
    @property
    def size_pages(self) -> int:
        """An index-free search costs zero index pages."""
        return 0

    @property
    def size_bytes(self) -> int:
        return 0
