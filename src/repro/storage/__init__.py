"""Simulated storage: counters, prices, devices, relations, warm pool.

This package replaces the paper's physical testbed (Seagate 10K HDD, OCZ
Deneva SSD, 48 GB DRAM) with a deterministic simulator.  See the
``repro.storage`` row of README.md's module table for what it models.
Every charge is a count in the stack's :class:`IOStats`; simulated time
is those counts priced by :class:`StorageStack` (device latencies and
CPU constants), never a separate running total.  :class:`BufferPool` is
the warm-cache resident page set (the internal nodes a warm-bound tree
keeps in memory).
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.config import (
    CONFIGS_BY_NAME,
    FIVE_CONFIGS,
    HDD_HDD,
    MEM_HDD,
    MEM_SSD,
    SSD_HDD,
    SSD_SSD,
    StorageConfig,
    StorageStack,
    build_stack,
)
from repro.storage.device import (
    HDD_PROFILE,
    MEMORY_PROFILE,
    PAGE_SIZE,
    PROFILES,
    SSD_PROFILE,
    Device,
    DeviceProfile,
    Medium,
)
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation

__all__ = [
    "BufferPool",
    "CONFIGS_BY_NAME",
    "FIVE_CONFIGS",
    "HDD_HDD",
    "MEM_HDD",
    "MEM_SSD",
    "SSD_HDD",
    "SSD_SSD",
    "StorageConfig",
    "StorageStack",
    "build_stack",
    "HDD_PROFILE",
    "MEMORY_PROFILE",
    "PAGE_SIZE",
    "PROFILES",
    "SSD_PROFILE",
    "Device",
    "DeviceProfile",
    "Medium",
    "IOStats",
    "Relation",
]
