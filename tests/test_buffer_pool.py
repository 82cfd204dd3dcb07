"""Unit tests for the LRU buffer pool (warm/cold cache modeling)."""

import pytest

from repro.storage import BufferPool, IOStats, SimulatedClock
from repro.storage.device import MEMORY_PROFILE, SSD_PROFILE, Device


def _pool(capacity):
    device = Device(SSD_PROFILE, SimulatedClock(), IOStats(), role="index")
    return BufferPool(device, capacity_pages=capacity), device


class TestBasics:
    def test_miss_charges_device(self):
        pool, device = _pool(4)
        hit = pool.read_page(1, sequential=False)
        assert not hit
        assert device.stats.index_random_reads == 1
        assert device.stats.cache_misses == 1

    def test_hit_charges_memory_only(self):
        pool, device = _pool(4)
        pool.read_page(1, sequential=False)
        before = device.clock.now()
        hit = pool.read_page(1, sequential=False)
        assert hit
        assert device.stats.cache_hits == 1
        assert device.clock.now() - before == pytest.approx(
            MEMORY_PROFILE.random_read
        )

    def test_zero_capacity_never_caches(self):
        pool, device = _pool(0)
        pool.read_page(1, sequential=False)
        pool.read_page(1, sequential=False)
        assert device.stats.index_random_reads == 2
        assert not pool.enabled

    def test_disabled_pool_counts_no_misses(self):
        """Regression: a disabled pool (cold-cache O_DIRECT mode) must not
        charge cache_misses — there is no cache, and counting misses
        deflated hit-rate metrics computed over cold-cache runs."""
        pool, device = _pool(0)
        pool.read_page(1, sequential=False)
        pool.read_page(1, sequential=False)
        assert device.stats.cache_misses == 0
        assert device.stats.cache_hits == 0

    def test_enabled_pool_still_counts_misses(self):
        pool, device = _pool(2)
        pool.read_page(1, sequential=False)
        pool.read_page(2, sequential=False)
        pool.read_page(1, sequential=False)
        assert device.stats.cache_misses == 2
        assert device.stats.cache_hits == 1

    def test_unbounded_capacity(self):
        pool, _ = _pool(None)
        for page in range(1000):
            pool.read_page(page, sequential=False)
        assert len(pool) == 1000


class TestLRU:
    def test_eviction_order(self):
        pool, _ = _pool(2)
        pool.read_page(1, sequential=False)
        pool.read_page(2, sequential=False)
        pool.read_page(3, sequential=False)          # evicts 1
        assert 1 not in pool and 2 in pool and 3 in pool

    def test_touch_refreshes_recency(self):
        pool, _ = _pool(2)
        pool.read_page(1, sequential=False)
        pool.read_page(2, sequential=False)
        pool.read_page(1, sequential=False)          # 2 becomes LRU
        pool.read_page(3, sequential=False)          # evicts 2
        assert 1 in pool and 2 not in pool


class TestWarmSetup:
    def test_prefault_no_io(self):
        pool, device = _pool(None)
        pool.prefault([1, 2, 3])
        assert device.stats.index_reads == 0
        assert all(page in pool for page in (1, 2, 3))

    def test_prefault_disabled_pool(self):
        pool, _ = _pool(0)
        pool.prefault([1, 2])
        assert len(pool) == 0

    def test_invalidate(self):
        pool, _ = _pool(4)
        pool.read_page(1, sequential=False)
        pool.invalidate(1)
        assert 1 not in pool

    def test_clear(self):
        pool, _ = _pool(4)
        pool.read_page(1, sequential=False)
        pool.clear()
        assert len(pool) == 0
