"""Unit tests for the page-based relation."""

import numpy as np
import pytest

from repro.storage import PAGE_SIZE, Relation, build_stack
from repro.storage.device import SSD_PROFILE


def _relation(n=100, tuple_size=256):
    return Relation({"k": np.arange(n, dtype=np.int64)}, tuple_size=tuple_size)


def _device():
    return build_stack("SSD/SSD").data_device


class TestGeometry:
    def test_tuples_per_page(self):
        assert _relation().tuples_per_page == PAGE_SIZE // 256

    def test_npages_ceil(self):
        rel = _relation(n=17, tuple_size=256)  # 16 tuples/page -> 2 pages
        assert rel.npages == 2

    def test_page_of(self):
        rel = _relation(n=100)
        assert rel.page_of(0) == 0
        assert rel.page_of(16) == 1

    def test_page_of_out_of_range(self):
        with pytest.raises(IndexError):
            _relation(10).page_of(10)

    def test_page_bounds_last_partial(self):
        rel = _relation(n=20)
        first, last = rel.page_bounds(1)
        assert (first, last) == (16, 20)

    def test_page_bounds_invalid(self):
        with pytest.raises(IndexError):
            _relation(10).page_bounds(5)

    def test_size_bytes(self):
        rel = _relation(n=32)
        assert rel.size_bytes == rel.npages * PAGE_SIZE

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Relation({}, tuple_size=100)

    def test_mismatched_column_lengths(self):
        with pytest.raises(ValueError):
            Relation(
                {"a": np.arange(5), "b": np.arange(6)}, tuple_size=100
            )

    def test_oversized_tuple(self):
        with pytest.raises(ValueError):
            Relation({"a": np.arange(5)}, tuple_size=PAGE_SIZE + 1)


class TestAccess:
    def test_scan_keys_page_contents(self):
        rel = _relation(n=40)
        keys = list(range(16, 32))
        scan = rel.scan_keys("k", keys, [1] * 16, stop_early=False)
        assert scan.hit_tid.tolist() == list(range(16, 32))
        assert scan.hit_pair.tolist() == list(range(16))
        assert rel.page_bounds(1)[0] == 16
        assert scan.examined.tolist() == [16] * 16

    def test_scan_keys_counts(self):
        rel = Relation(
            {"k": np.asarray([1, 2, 2, 2, 3], dtype=np.int64)}, tuple_size=512
        )
        scan = rel.scan_keys("k", [2], [0], stop_early=True)
        assert scan.matches.tolist() == [3]

    def test_scan_stop_early(self):
        rel = _relation(n=16)
        device = _device()
        rel.fetch_tids("k", 2, [2], device, stop_early=True)
        # keys 0,1,2 then stop at 3 -> 4 tuples examined
        assert device.stats.tuples_scanned == 4

    def test_scan_full_when_not_stopping(self):
        rel = _relation(n=16)
        device = _device()
        rel.fetch_tids("k", 2, [2], device, stop_early=False)
        assert device.stats.tuples_scanned == 16

    def test_multi_column_views(self):
        rel = Relation(
            {"a": np.arange(10), "b": np.arange(10) * 2}, tuple_size=512
        )
        keys = [0, 2, 4, 6, 8, 10, 12, 14]
        scan = rel.scan_keys("b", keys, [0] * 8, stop_early=False)
        assert scan.hit_tid.tolist() == list(range(8))

    def test_fetch_tids_charges_one_random_then_sequential(self):
        rel = _relation(n=64)  # 4 pages
        device = _device()
        assert rel.fetch_tids("k", 5, [5, 40, 60, 41], device, True) == 3
        assert device.stats.data_random_reads == 1
        assert device.stats.data_seq_reads == 2

    def test_fetch_tids_out_of_range(self):
        with pytest.raises(IndexError):
            _relation(10).fetch_tids("k", 1, [10], _device(), True)

    def test_fetch_clustered_follows_duplicates(self):
        # 4 tuples per page: key 5 runs from the end of page 0 into the
        # start of page 3, whose last tuple ends the walk.
        values = [0, 1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 7, 8, 9, 9]
        rel = Relation({"k": np.asarray(values)}, tuple_size=1024)
        stack = build_stack("SSD/SSD")
        device = stack.data_device
        tids, pages = rel.fetch_clustered("k", 5, [3, 4, 12], device)
        assert tids == list(range(3, 13))
        assert pages == 4
        assert device.stats.data_random_reads == 1
        assert device.stats.data_seq_reads == 3
        assert device.stats.tuples_scanned == 16
        assert stack.elapsed() == pytest.approx(
            SSD_PROFILE.random_read + 3 * SSD_PROFILE.seq_read)
