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

:class:`StorageStack` wires a shared clock and IOStats to one index device
and one data device, mirroring that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.clock import SimulatedClock
from repro.storage.device import PROFILES, Device, Medium
from repro.storage.iostats import IOStats


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
    """A concrete wiring of one configuration: clock, stats, two devices."""

    config: StorageConfig
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    stats: IOStats = field(default_factory=IOStats)
    index_device: Device = field(init=False)
    data_device: Device = field(init=False)

    def __post_init__(self) -> None:
        self.index_device = Device(
            PROFILES[self.config.index_medium], self.clock, self.stats, role="index"
        )
        self.data_device = Device(
            PROFILES[self.config.data_medium], self.clock, self.stats, role="data"
        )


def build_stack(config: StorageConfig | str) -> StorageStack:
    """Create a fresh :class:`StorageStack` for ``config`` (or its name)."""
    if isinstance(config, str):
        try:
            config = CONFIGS_BY_NAME[config]
        except KeyError:
            valid = ", ".join(CONFIGS_BY_NAME)
            raise ValueError(f"unknown config {config!r}; valid: {valid}") from None
    return StorageStack(config=config)
