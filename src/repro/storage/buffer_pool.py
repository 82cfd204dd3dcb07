"""LRU buffer pool over a simulated device.

The paper evaluates both *cold caches* (data accessed with O_DIRECT |
O_SYNC, i.e. every page access hits the device) and *warm caches* (the
index's internal nodes are memory-resident, so only leaf accesses cause
I/O).  :class:`BufferPool` models the cache: a page access that hits the
pool costs a DRAM touch; a miss is charged to the underlying device and
the page is cached, evicting the least recently used entry when the pool
is full.

Indexes access their node storage through a :class:`BufferPool` so that
the warm/cold distinction is a property of the experiment, not of the
index code.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.storage.device import MEMORY_PROFILE, Device


class BufferPool:
    """Fixed-capacity LRU page cache in front of a :class:`Device`.

    ``capacity_pages = 0`` disables caching entirely (the paper's cold-cache
    O_DIRECT mode).  ``capacity_pages = None`` means unbounded (everything
    pinned once touched).
    """

    def __init__(
        self,
        device: Device,
        capacity_pages: int | None = 0,
        admit_on_miss: bool = True,
    ) -> None:
        self.device = device
        self.capacity = capacity_pages
        self.admit_on_miss = admit_on_miss
        self._pages: OrderedDict[int, None] = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.capacity is None or self.capacity > 0

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    def read_page(self, page_id: int, sequential: bool) -> bool:
        """Access ``page_id``; return True on a cache hit.

        A hit costs one DRAM page touch.  A miss charges the device and
        inserts the page (evicting LRU if needed).  A *disabled* pool
        (``capacity_pages=0``, the cold-cache O_DIRECT mode) counts
        neither hits nor misses: there is no cache, so charging
        ``cache_misses`` would deflate hit-rate metrics computed over
        cold-cache runs.
        """
        if self.enabled:
            if page_id in self._pages:
                self._pages.move_to_end(page_id)
                self.device.stats.cache_hits += 1
                self.device.clock.advance(MEMORY_PROFILE.random_read)
                return True
            self.device.stats.cache_misses += 1
        self.device.read_page(page_id, sequential=sequential)
        if self.admit_on_miss:
            self._admit(page_id)
        return False

    def prefault(self, page_ids: Iterable[int]) -> None:
        """Populate the pool without charging any I/O (warm-cache setup)."""
        if not self.enabled:
            return
        for page_id in page_ids:
            self._admit(page_id)

    def invalidate(self, page_id: int) -> None:
        """Drop ``page_id`` from the pool if present (after a write)."""
        self._pages.pop(page_id, None)

    def clear(self) -> None:
        """Empty the pool (back to cold caches)."""
        self._pages.clear()

    # ------------------------------------------------------------------
    def _admit(self, page_id: int) -> None:
        if not self.enabled:
            return
        self._pages[page_id] = None
        self._pages.move_to_end(page_id)
        if self.capacity is not None:
            while len(self._pages) > self.capacity:
                self._pages.popitem(last=False)

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"BufferPool(cached={len(self._pages)}, capacity={cap})"
