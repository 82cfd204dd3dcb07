"""Warm-cache resident page set over a simulated device.

The paper evaluates both *cold caches* (data accessed with O_DIRECT |
O_SYNC, i.e. every page access hits the device) and *warm caches* (the
index's internal nodes are memory-resident, so only leaf accesses cause
I/O).  Cold mode has no pool at all.  Warm mode reads its index pages
through a :class:`BufferPool`: the resident pages given when the pool is
built, a set no read adds to.
"""

from __future__ import annotations

from typing import Iterable

from repro.storage.device import Device


class BufferPool:
    """The pages of ``device`` that stay memory-resident (warm caches).

    ``resident`` is loaded without charging any I/O.  A read of a
    resident page costs one DRAM touch (the stack prices ``cache_hits``
    at ``MEMORY_PROFILE.random_read``); any other read is charged to the
    device and admits nothing, so no read changes which pages are
    resident.  Only :meth:`invalidate` (a write) removes one.
    """

    def __init__(self, device: Device, resident: Iterable[int]) -> None:
        self.device = device
        self._pages = set(resident)

    def read_page(self, page_id: int, sequential: bool) -> bool:
        """Access ``page_id``; return True when it is resident.

        A hit counts ``cache_hits``; a miss counts ``cache_misses`` and
        charges the device.
        """
        if page_id in self._pages:
            self.device.stats.cache_hits += 1
            return True
        self.device.stats.cache_misses += 1
        self.device.read_page(page_id, sequential=sequential)
        return False

    def invalidate(self, page_id: int) -> None:
        """Drop ``page_id`` from the resident set if present (after a write)."""
        self._pages.discard(page_id)
