"""The paper's five storage configurations (index placement / data placement).

Section 6 evaluates every index under five (index, data) device pairs:

=============  =============  =============
configuration  index device   data device
=============  =============  =============
``MEM/SSD``    main memory    SSD
``SSD/SSD``    SSD            SSD
``MEM/HDD``    main memory    HDD
``SSD/HDD``    SSD            HDD
``HDD/HDD``    HDD            HDD
=============  =============  =============

:class:`StorageStack` wires one IOStats to one index device and one data
device, mirroring that table, and owns the price list that turns those
counts into simulated time: the two devices' per-page latencies, one DRAM
page touch per warm-pool hit and the ``CPU_*`` constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import mul, sub

from repro.storage.device import (
    MEMORY_PROFILE,
    PROFILES,
    Device,
    DeviceProfile,
    Medium,
)
from repro.storage.iostats import IOStats

# CPU cost constants (seconds).  These are small relative to any device I/O
# and only matter for the in-memory storage configurations, where the paper
# compares BF-Tree probes against hash-index and memory-resident B+-Tree
# probes.  Values approximate a ~2.7 GHz core of the paper's testbed.
CPU_KEY_COMPARE = 20e-9          # one key comparison during binary search
# Probing one Bloom filter costs k hashed bit reads, but a negative test
# exits after ~2 reads on average (each set with probability ~fill), so
# the expected per-filter cost is a couple of cache-resident reads.
CPU_BLOOM_PROBE = 25e-9
CPU_BLOOM_INSERT = 60e-9         # insert one key into a Bloom filter
CPU_HASH_PROBE = 250e-9          # one hash-table lookup
CPU_TUPLE_SCAN = 25e-9           # inspect one tuple inside a fetched page


def price_list(index: DeviceProfile, data: DeviceProfile) -> dict[str, float]:
    """Seconds per unit of each :class:`IOStats` counter (Eq. 13's prices).

    A write counts in ``*_writes`` at the random-write price; a
    sequential one also counts in ``*_seq_writes``, priced at the
    difference, so together they cost the sequential-write latency.
    Likewise ``uncharged_tuples`` cancel their ``tuples_scanned`` price.
    """
    return {
        "index_random_reads": index.random_read,
        "index_seq_reads": index.seq_read,
        "index_writes": index.random_write,
        "data_random_reads": data.random_read,
        "data_seq_reads": data.seq_read,
        "data_writes": data.random_write,
        "false_reads": 0.0,
        "bloom_probes": CPU_BLOOM_PROBE,
        "key_comparisons": CPU_KEY_COMPARE,
        "tuples_scanned": CPU_TUPLE_SCAN,
        "cache_hits": MEMORY_PROFILE.random_read,
        "cache_misses": 0.0,
        "bloom_inserts": CPU_BLOOM_INSERT,
        "hash_probes": CPU_HASH_PROBE,
        "index_seq_writes": index.seq_write - index.random_write,
        "data_seq_writes": data.seq_write - data.random_write,
        "uncharged_tuples": -CPU_TUPLE_SCAN,
    }


@dataclass(frozen=True)
class StorageConfig:
    """Named (index medium, data medium) pair."""

    name: str
    index_medium: Medium
    data_medium: Medium

    @property
    def index_in_memory(self) -> bool:
        return self.index_medium is Medium.MEMORY


MEM_SSD = StorageConfig("MEM/SSD", Medium.MEMORY, Medium.SSD)
SSD_SSD = StorageConfig("SSD/SSD", Medium.SSD, Medium.SSD)
MEM_HDD = StorageConfig("MEM/HDD", Medium.MEMORY, Medium.HDD)
SSD_HDD = StorageConfig("SSD/HDD", Medium.SSD, Medium.HDD)
HDD_HDD = StorageConfig("HDD/HDD", Medium.HDD, Medium.HDD)

FIVE_CONFIGS: tuple[StorageConfig, ...] = (
    MEM_SSD,
    SSD_SSD,
    MEM_HDD,
    SSD_HDD,
    HDD_HDD,
)
"""All five configurations, in the order the paper's figures list them."""

CONFIGS_BY_NAME = {config.name: config for config in FIVE_CONFIGS}


@dataclass
class StorageStack:
    """A concrete wiring of one configuration: stats, two devices, prices.

    Simulated time is not kept anywhere: :meth:`elapsed` prices the
    stack's counters, and an operation's latency is the price of the
    IOStats it added (:meth:`price` of a diff, or :meth:`since` a
    :meth:`IOStats.mark`; pricing the delta, not differencing two priced
    totals, keeps a short op's latency exact to a few ulps).
    """

    config: StorageConfig
    stats: IOStats = field(default_factory=IOStats)
    index_device: Device = field(init=False)
    data_device: Device = field(init=False)
    #: ``price_list`` of the two devices, aligned with ``fields(IOStats)``.
    prices: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        index = PROFILES[self.config.index_medium]
        data = PROFILES[self.config.data_medium]
        self.index_device = Device(index, self.stats, role="index")
        self.data_device = Device(data, self.stats, role="data")
        table = price_list(index, data)
        self.prices = tuple(table[f.name] for f in fields(IOStats))

    def price(self, stats: IOStats) -> float:
        """Simulated seconds the charges counted in ``stats`` cost here."""
        seconds: float = sum(map(mul, vars(stats).values(), self.prices))
        return seconds

    def since(self, mark: tuple[float, ...]) -> float:
        """Simulated seconds charged since ``stats.mark()`` gave ``mark``."""
        seconds: float = sum(map(mul, map(sub, vars(self.stats).values(),
                                             mark), self.prices))
        return seconds

    def elapsed(self) -> float:
        """Simulated seconds charged to this stack so far."""
        return self.price(self.stats)


def build_stack(config: StorageConfig | str) -> StorageStack:
    """Create a fresh :class:`StorageStack` for ``config`` (or its name)."""
    if isinstance(config, str):
        try:
            config = CONFIGS_BY_NAME[config]
        except KeyError:
            valid = ", ".join(CONFIGS_BY_NAME)
            raise ValueError(f"unknown config {config!r}; valid: {valid}") from None
    return StorageStack(config=config)
