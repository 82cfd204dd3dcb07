"""Unit tests for the storage substrate: clock, devices, stats, configs."""

import dataclasses

import pytest

from repro.storage import (
    FIVE_CONFIGS,
    HDD_PROFILE,
    MEMORY_PROFILE,
    SSD_PROFILE,
    Device,
    IOStats,
    Medium,
    SimulatedClock,
    build_stack,
)


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_no_backwards(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)


class TestProfiles:
    def test_hdd_random_much_slower_than_seq(self):
        assert HDD_PROFILE.random_read > 50 * HDD_PROFILE.seq_read

    def test_ssd_nearly_symmetric(self):
        """The paper's premise: SSD random ~ sequential reads."""
        assert SSD_PROFILE.random_read < 5 * SSD_PROFILE.seq_read

    def test_ordering_memory_ssd_hdd(self):
        assert (
            MEMORY_PROFILE.random_read
            < SSD_PROFILE.random_read
            < HDD_PROFILE.random_read
        )

    def test_read_latency_selector(self):
        assert HDD_PROFILE.read_latency(True) == HDD_PROFILE.seq_read
        assert HDD_PROFILE.read_latency(False) == HDD_PROFILE.random_read


class TestDevice:
    def _device(self, profile=SSD_PROFILE, role="data"):
        clock = SimulatedClock()
        stats = IOStats()
        return Device(profile, clock, stats, role=role), clock, stats

    def test_random_read_charges_clock(self):
        device, clock, stats = self._device()
        device.read_page(10, sequential=False)
        assert clock.now() == pytest.approx(SSD_PROFILE.random_read)
        assert stats.data_random_reads == 1

    def test_access_pattern_is_required(self):
        """A device keeps no head to infer a pattern from."""
        device, clock, _ = self._device()
        with pytest.raises(TypeError):
            device.read_page(10)
        with pytest.raises(TypeError):
            device.write_page(10)
        assert clock.now() == 0.0

    def test_explicit_sequential_override(self):
        device, _, stats = self._device()
        device.read_page(100, sequential=True)
        assert stats.data_seq_reads == 1

    def test_read_run(self):
        device, clock, stats = self._device()
        device.read_run(5, 4)
        assert stats.data_random_reads == 1
        assert stats.data_seq_reads == 3

    def test_read_run_empty(self):
        device, clock, _ = self._device()
        device.read_run(5, 0)
        assert clock.now() == 0.0

    def test_read_batch_charges_read_cost(self):
        device, clock, stats = self._device()
        device.read_batch(2, 3)
        assert clock.now() == device.read_cost(2, 3)
        assert clock.now() == pytest.approx(
            2 * SSD_PROFILE.random_read + 3 * SSD_PROFILE.seq_read)
        assert (stats.data_random_reads, stats.data_seq_reads) == (2, 3)

    def test_index_role_counters(self):
        device, _, stats = self._device(role="index")
        device.read_page(0, sequential=False)
        assert stats.index_random_reads == 1
        assert stats.data_random_reads == 0

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            Device(SSD_PROFILE, SimulatedClock(), IOStats(), role="cache")

    def test_write_counted(self):
        device, clock, stats = self._device()
        device.write_page(3, sequential=False)
        assert stats.data_writes == 1
        assert clock.now() > 0


class TestIOStats:
    def test_snapshot_diff(self):
        stats = IOStats()
        stats.data_random_reads = 3
        snap = stats.snapshot()
        stats.data_random_reads = 10
        assert stats.diff(snap).data_random_reads == 7
        assert snap.data_random_reads == 3

    def test_totals(self):
        stats = IOStats(
            index_random_reads=1, index_seq_reads=2,
            data_random_reads=3, data_seq_reads=4,
        )
        assert stats.total_reads == 10
        assert stats.index_reads == 3
        assert stats.data_reads == 7

    def test_add(self):
        a = IOStats(false_reads=1)
        b = IOStats(false_reads=2, data_seq_reads=5)
        c = a + b
        assert c.false_reads == 3 and c.data_seq_reads == 5

    @pytest.mark.parametrize("m", [0, 1, 2, 7])
    def test_add_scaled_diff_equals_m_diffs(self, m):
        names = [f.name for f in dataclasses.fields(IOStats)]
        before = IOStats(**{n: 3 * i for i, n in enumerate(names)})
        now = IOStats(**{n: 3 * i + i % 4 for i, n in enumerate(names)})
        want = now.snapshot()
        for _ in range(m):
            want = want + now.diff(before)
        now.add_scaled_diff(before, m)
        assert now == want
        assert all(type(v) is int for v in vars(now).values())
        assert before == IOStats(**{n: 3 * i for i, n in enumerate(names)})


class TestConfigs:
    def test_five_configs(self):
        names = [c.name for c in FIVE_CONFIGS]
        assert names == ["MEM/SSD", "SSD/SSD", "MEM/HDD", "SSD/HDD", "HDD/HDD"]

    def test_build_stack_by_name(self):
        stack = build_stack("SSD/HDD")
        assert stack.index_device.medium is Medium.SSD
        assert stack.data_device.medium is Medium.HDD

    def test_build_stack_unknown(self):
        with pytest.raises(ValueError):
            build_stack("TAPE/TAPE")

    def test_devices_share_clock_and_stats(self):
        stack = build_stack("SSD/SSD")
        stack.index_device.read_page(0, sequential=False)
        stack.data_device.read_page(0, sequential=False)
        assert stack.stats.index_random_reads == 1
        assert stack.stats.data_random_reads == 1
        assert stack.clock.now() == pytest.approx(2 * SSD_PROFILE.random_read)

    def test_index_in_memory_flag(self):
        assert build_stack("MEM/HDD").config.index_in_memory
        assert not build_stack("SSD/SSD").config.index_in_memory
