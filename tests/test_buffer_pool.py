"""Unit tests for the warm-cache resident page set."""

import numpy as np
import pytest

from repro.baselines import BPlusTree, BPlusTreeConfig
from repro.core.node import InnerTree, NodeStore
from repro.storage import BufferPool, Relation, build_stack
from repro.storage.device import MEMORY_PROFILE


def _device():
    return build_stack("SSD/SSD").index_device


def _pool(resident=()):
    device = _device()
    return BufferPool(device, resident), device


def _stack_pool(resident=()):
    stack = build_stack("SSD/SSD")
    return BufferPool(stack.index_device, resident), stack


def _directory(warm):
    """A three-level directory (two internal levels above six leaves)
    bound to a fresh index device."""
    tree = InnerTree(NodeStore(), fanout=4)
    tree.build([10, 20, 30, 40, 50], list(range(100, 106)))
    device = _device()
    tree.bind(device, warm=warm)
    return tree, device


class TestBasics:
    def test_miss_charges_device(self):
        pool, device = _pool()
        hit = pool.read_page(1, sequential=False)
        assert not hit
        assert device.stats.index_random_reads == 1
        assert device.stats.cache_misses == 1

    def test_hit_charges_memory_only(self):
        pool, stack = _stack_pool([1])
        before = stack.elapsed()
        hit = pool.read_page(1, sequential=False)
        assert hit
        assert stack.stats.cache_hits == 1
        assert stack.stats.index_reads == 0
        assert stack.elapsed() - before == pytest.approx(
            MEMORY_PROFILE.random_read
        )

    def test_zero_capacity_never_caches(self):
        """A page outside the resident set is charged on every read: a
        miss admits nothing."""
        pool, device = _pool()
        assert not pool.read_page(1, sequential=False)
        assert not pool.read_page(1, sequential=False)
        assert device.stats.index_random_reads == 2
        assert device.stats.cache_misses == 2

    def test_disabled_pool_counts_no_misses(self):
        """Regression: cold binding (the paper's O_DIRECT mode) has no
        pool, so it must not charge cache_misses — counting them
        deflated hit-rate metrics computed over cold-cache runs."""
        tree, device = _directory(warm=False)
        tree.charge_path(tree.route(35)[1])
        tree.charge_path(tree.route(35)[1])
        assert device.stats.index_random_reads == 4
        assert device.stats.cache_misses == 0
        assert device.stats.cache_hits == 0

    def test_enabled_pool_still_counts_misses(self):
        pool, device = _pool([1])
        pool.read_page(1, sequential=False)
        pool.read_page(2, sequential=False)
        pool.read_page(2, sequential=False)
        assert device.stats.cache_misses == 2
        assert device.stats.cache_hits == 1

    def test_unbounded_capacity(self):
        pool, device = _pool(range(1000))
        assert all(pool.read_page(page, sequential=False)
                   for page in range(1000))
        assert device.stats.index_reads == 0


class TestWarmSetup:
    def test_prefault_no_io(self):
        """Building the pool loads its resident pages without I/O."""
        pool, stack = _stack_pool([1, 2, 3])
        assert stack.stats.index_reads == 0 and stack.elapsed() == 0.0
        assert all(pool.read_page(page, sequential=False)
                   for page in (1, 2, 3))

    def test_prefault_disabled_pool(self):
        """Cold binding keeps no resident set, so every internal node a
        descent reads is charged to the device."""
        tree, device = _directory(warm=True)
        tree.bind(device, warm=False)
        assert tree.store.pool is None
        tree.charge_path(tree.route(35)[1])
        assert device.stats.index_random_reads == 2

    def test_invalidate(self):
        pool, device = _pool([1])
        pool.invalidate(1)
        assert not pool.read_page(1, sequential=False)
        assert device.stats.index_random_reads == 1
        pool.invalidate(1)              # absent page: nothing to drop

    def test_warm_bind_makes_internal_nodes_resident(self):
        tree, device = _directory(warm=True)
        path = tree.route(35)[1]
        assert len(path) == 2
        tree.charge_path(path)
        assert device.stats.cache_hits == 2
        assert device.stats.index_reads == 0


@pytest.mark.xfail(strict=True, reason=(
    "the warm pool drops internal nodes a split writes and never holds "
    "the ones it adds (CHANGES.md, FOUND)"))
def test_warm_descent_stays_free_after_splits():
    """Warm caches keep every internal node resident, so a probe pays
    one index read (its leaf) before and after inserts split the
    directory."""
    rel = Relation({"pk": np.arange(0, 20000, 2, dtype=np.int64)},
                   tuple_size=256)
    tree = BPlusTree.bulk_load(rel, "pk", BPlusTreeConfig(page_size=256),
                               unique=True)
    stack = build_stack("SSD/SSD")
    tree.bind(stack, warm=True)
    nodes = tree.inner.n_internal_nodes

    def index_reads(key):
        before = stack.stats.snapshot()
        tree.search(key)
        return stack.stats.diff(before).index_reads

    probes = range(0, 20000, 37)
    assert {index_reads(k) for k in probes} == {1}
    for key in range(1001, 1400, 2):
        tree.insert(key, 0)
    assert tree.inner.n_internal_nodes > nodes
    assert {index_reads(k) for k in probes} == {1}
