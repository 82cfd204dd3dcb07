"""Unit tests for the storage substrate: prices, devices, stats, configs."""

import dataclasses

import pytest

from repro.storage import (
    FIVE_CONFIGS,
    BufferPool,
    HDD_PROFILE,
    MEMORY_PROFILE,
    PROFILES,
    SSD_PROFILE,
    Device,
    IOStats,
    Medium,
    Relation,
    build_stack,
)
from repro.storage.config import (
    CPU_BLOOM_INSERT,
    CPU_BLOOM_PROBE,
    CPU_HASH_PROBE,
    CPU_KEY_COMPARE,
    CPU_TUPLE_SCAN,
    price_list,
)


def _charges(stack):
    """One charge of every kind, as the engines make it: (name, charge,
    the latency it must cost on ``stack``)."""
    index = PROFILES[stack.config.index_medium]
    data = PROFILES[stack.config.data_medium]
    stats = stack.stats
    kinds = []
    for role, device, profile in (("index", stack.index_device, index),
                                  ("data", stack.data_device, data)):
        kinds += [
            (f"{role} random read",
             lambda d=device: d.read_page(0, sequential=False),
             profile.random_read),
            (f"{role} sequential read",
             lambda d=device: d.read_page(1, sequential=True),
             profile.seq_read),
            (f"{role} random write",
             lambda d=device: d.write_page(0, sequential=False),
             profile.random_write),
            (f"{role} sequential write",
             lambda d=device: d.write_page(1, sequential=True),
             profile.seq_write),
        ]

    def bump(field, n=1):
        return lambda: setattr(stats, field, getattr(stats, field) + n)

    pool = BufferPool(stack.index_device, [7])
    kinds += [
        ("pool hit", lambda: pool.read_page(7, sequential=False),
         MEMORY_PROFILE.random_read),
        ("filter probe", bump("bloom_probes"), CPU_BLOOM_PROBE),
        ("filter insert", bump("bloom_inserts"), CPU_BLOOM_INSERT),
        ("hash probe", bump("hash_probes"), CPU_HASH_PROBE),
        ("tuple scan", bump("tuples_scanned"), CPU_TUPLE_SCAN),
        ("compare", bump("key_comparisons", 1.0), CPU_KEY_COMPARE),
    ]
    return kinds


class TestPriceTable:
    """Simulated time is IOStats priced: pin every entry of the list."""

    @pytest.mark.parametrize("config", [c.name for c in FIVE_CONFIGS])
    def test_one_charge_of_each_kind(self, config):
        kinds = len(_charges(build_stack(config)))
        assert kinds == 14
        for k in range(kinds):
            stack = build_stack(config)     # a fresh stack per charge
            name, charge, latency = _charges(stack)[k]
            charge()
            assert stack.elapsed() == pytest.approx(latency, rel=1e-12), \
                (config, name)

    def test_clustered_fetch_charges_no_cpu(self):
        stack = build_stack("SSD/HDD")
        rel = Relation({"k": list(range(64))}, tuple_size=1024)
        rel.fetch_clustered("k", 5, [5], stack.data_device)
        assert stack.stats.tuples_scanned == 4
        assert stack.elapsed() == pytest.approx(HDD_PROFILE.random_read,
                                                rel=1e-12)

    def test_three_readings_of_a_delta_agree(self):
        stack = build_stack("SSD/HDD")
        stack.index_device.read_page(0, sequential=False)
        before, mark, t0 = (stack.stats.snapshot(), stack.stats.mark(),
                            stack.elapsed())
        stack.data_device.read_batch(2, 5)
        stack.stats.key_comparisons += 3.5
        want = 2 * HDD_PROFILE.random_read + 5 * HDD_PROFILE.seq_read \
            + 3.5 * CPU_KEY_COMPARE
        assert stack.since(mark) == pytest.approx(want, rel=1e-12)
        assert stack.price(stack.stats.diff(before)) == pytest.approx(
            want, rel=1e-12)
        assert stack.elapsed() - t0 == pytest.approx(want, rel=1e-12)


class TestClock:
    """A stack's simulated clock is its priced IOStats."""

    def test_starts_at_zero(self):
        for config in FIVE_CONFIGS:
            assert build_stack(config).elapsed() == 0.0

    def test_advance(self):
        stack = build_stack("HDD/HDD")
        stack.data_device.read_page(0, sequential=False)
        stack.index_device.write_page(3, sequential=True)
        assert stack.elapsed() == pytest.approx(
            HDD_PROFILE.random_read + HDD_PROFILE.seq_write)

    def test_no_backwards(self):
        """Some counters carry negative prices (a sequential write's
        discount, a clustered fetch's uncharged tuples); no charge
        moves the clock back."""
        for config in FIVE_CONFIGS:
            stack = build_stack(config)
            for _, charge, _ in _charges(stack):
                before = stack.elapsed()
                charge()
                assert stack.elapsed() >= before


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
        """The price list picks a read's latency by role and pattern."""
        prices = price_list(SSD_PROFILE, HDD_PROFILE)
        assert prices["index_seq_reads"] == SSD_PROFILE.seq_read
        assert prices["data_seq_reads"] == HDD_PROFILE.seq_read
        assert prices["data_random_reads"] == HDD_PROFILE.random_read


class TestDevice:
    def _device(self, role="data"):
        stack = build_stack("SSD/SSD")
        device = stack.index_device if role == "index" else stack.data_device
        return device, stack, stack.stats

    def test_random_read_charges_clock(self):
        device, stack, stats = self._device()
        device.read_page(10, sequential=False)
        assert stack.elapsed() == pytest.approx(SSD_PROFILE.random_read)
        assert stats.data_random_reads == 1

    def test_access_pattern_is_required(self):
        """A device keeps no head to infer a pattern from."""
        device, stack, _ = self._device()
        with pytest.raises(TypeError):
            device.read_page(10)
        with pytest.raises(TypeError):
            device.write_page(10)
        assert stack.elapsed() == 0.0

    def test_explicit_sequential_override(self):
        device, _, stats = self._device()
        device.read_page(100, sequential=True)
        assert stats.data_seq_reads == 1

    def test_read_run(self):
        device, _, stats = self._device()
        device.read_run(5, 4)
        assert stats.data_random_reads == 1
        assert stats.data_seq_reads == 3

    def test_read_run_empty(self):
        device, stack, _ = self._device()
        device.read_run(5, 0)
        assert stack.elapsed() == 0.0

    def test_read_batch_charges_read_cost(self):
        device, stack, stats = self._device()
        device.read_batch(2, 3)
        assert stack.elapsed() == pytest.approx(device.read_cost(2, 3),
                                                rel=1e-12)
        assert stack.elapsed() == pytest.approx(
            2 * SSD_PROFILE.random_read + 3 * SSD_PROFILE.seq_read)
        assert (stats.data_random_reads, stats.data_seq_reads) == (2, 3)

    def test_index_role_counters(self):
        device, _, stats = self._device(role="index")
        device.read_page(0, sequential=False)
        assert stats.index_random_reads == 1
        assert stats.data_random_reads == 0

    def test_invalid_role(self):
        with pytest.raises(ValueError):
            Device(SSD_PROFILE, IOStats(), role="cache")

    def test_write_counted(self):
        device, stack, stats = self._device()
        device.write_page(3, sequential=False)
        device.write_page(4, sequential=True)
        assert (stats.data_writes, stats.data_seq_writes) == (2, 1)
        assert stack.elapsed() > 0


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
        now.add_scaled_diff(before.mark(), m)
        assert now == want
        assert all(type(v) is int for n, v in vars(now).items()
                   if n != "key_comparisons")
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
        assert stack.elapsed() == pytest.approx(2 * SSD_PROFILE.random_read)

    def test_index_in_memory_flag(self):
        assert build_stack("MEM/HDD").config.index_in_memory
        assert not build_stack("SSD/SSD").config.index_in_memory
