"""Simulated storage devices with a latency cost model.

The paper's testbed uses a Seagate 10K RPM HDD (106 MB/s sequential for
4 KB pages) and an OCZ Deneva 2C SATA SSD (550 MB/s sequential, up to
80 kIOPS random reads), plus main memory.  We model each medium as a
:class:`DeviceProfile` with four per-page latencies (random/sequential x
read/write) and a :class:`Device` that counts every access in a shared
:class:`~repro.storage.iostats.IOStats`; the stack prices those counts
with the profiles (:class:`~repro.storage.config.StorageStack`).

Access patterns: every charge states whether it is random or sequential
(Eq. 13's ``idxIO``/``dataIO`` versus ``seqDtIO``).  A device keeps no
head position and infers nothing from page adjacency; callers that read
planned page runs split them with :func:`classify_read_runs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.storage.iostats import IOStats

PAGE_SIZE = 4096
"""Bytes per page, fixed to 4 KB throughout the paper's evaluation."""


def classify_read_runs(runs: Iterable[tuple[int, int]],
                       prev_pid: int | None = None
                       ) -> tuple[int, int, int | None]:
    """Eq. 13 access-pattern split for planned ``(first_pid, npages)`` runs.

    Returns ``(n_random, n_sequential, last_pid)`` under the rule the
    scalar scan loops charge page by page: a page is sequential iff it
    immediately follows the previously read page, so each disjoint run
    pays one random positioning and the rest ride sequentially.
    ``prev_pid`` carries the position across calls (consecutive leaves
    whose runs are disk-contiguous continue one sequential stream).
    The batch scan engines feed the result to :meth:`Device.read_batch`;
    this helper is the single definition of the split those engines must
    share with the scalar loops.
    """
    n_random = 0
    total = 0
    for first, npages in runs:
        if prev_pid is None or first != prev_pid + 1:
            n_random += 1
        prev_pid = first + npages - 1
        total += npages
    return n_random, total - n_random, prev_pid


class Medium(Enum):
    """Kind of storage medium a device profile describes."""

    MEMORY = "memory"
    SSD = "ssd"
    HDD = "hdd"


@dataclass(frozen=True)
class DeviceProfile:
    """Latency description of one storage medium (seconds per 4 KB page)."""

    name: str
    medium: Medium
    random_read: float
    seq_read: float
    random_write: float
    seq_write: float


# Profiles calibrated to the paper's hardware (Section 6.1).
#
# HDD: Seagate 10K RPM.  Sequential 106 MB/s => 4096 / 106e6 ~= 38.6 us per
# page.  Random read = seek + half-rotation ~= 5 ms (10K RPM -> 3 ms
# rotational average + ~2 ms short seek).
# SSD: OCZ Deneva 2C.  The advertised 80 kIOPS hold at high queue depth;
# the paper's probes are synchronous O_DIRECT reads, whose QD1 latency on
# a SATA SSD of that generation is ~90 us per 4 KB page.  Sequential
# O_DIRECT reads (no readahead) land around 25 us.  Writes are slower.
# MEMORY: ~50 ns per cacheline-resident page touch; page "reads" from DRAM
# cost roughly a memcpy of 4 KB (~0.4 us) but never count as I/O to disk.
HDD_PROFILE = DeviceProfile(
    name="seagate-10k-hdd",
    medium=Medium.HDD,
    random_read=5.0e-3,
    seq_read=38.6e-6,
    random_write=5.0e-3,
    seq_write=38.6e-6,
)

SSD_PROFILE = DeviceProfile(
    name="ocz-deneva2-ssd",
    medium=Medium.SSD,
    random_read=90.0e-6,
    seq_read=25.0e-6,
    random_write=120.0e-6,
    seq_write=30.0e-6,
)

MEMORY_PROFILE = DeviceProfile(
    name="dram",
    medium=Medium.MEMORY,
    random_read=0.4e-6,
    seq_read=0.4e-6,
    random_write=0.4e-6,
    seq_write=0.4e-6,
)

PROFILES = {
    Medium.HDD: HDD_PROFILE,
    Medium.SSD: SSD_PROFILE,
    Medium.MEMORY: MEMORY_PROFILE,
}


class Device:
    """One storage device counting every page access in shared IOStats.

    ``role`` selects which IOStats counters this device updates: ``"index"``
    for the device holding the index and ``"data"`` for the device holding
    the main file.  ``profile`` is the device's price list.  The device
    keeps no position: each access states its pattern (``sequential`` is
    required on :meth:`read_page` and :meth:`write_page`; :meth:`read_run`
    and :meth:`read_batch` carry explicit counts), so the order of charges
    never changes their cost.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        stats: IOStats,
        role: str = "data",
    ) -> None:
        if role not in ("index", "data"):
            raise ValueError(f"role must be 'index' or 'data', got {role!r}")
        self.profile = profile
        self.stats = stats
        self.role = role

    @property
    def medium(self) -> Medium:
        return self.profile.medium

    def read_page(self, page_id: int, sequential: bool) -> None:
        """Count one page read with the stated pattern."""
        if self.role == "index":
            if sequential:
                self.stats.index_seq_reads += 1
            else:
                self.stats.index_random_reads += 1
        else:
            if sequential:
                self.stats.data_seq_reads += 1
            else:
                self.stats.data_random_reads += 1

    def read_run(self, first_page: int, npages: int) -> None:
        """Count one random read plus ``npages - 1`` sequential reads."""
        if npages > 0:
            self.read_batch(1, npages - 1)

    def read_batch(self, n_random: int, n_sequential: int) -> None:
        """Count ``n_random`` random plus ``n_sequential`` sequential page
        reads: the aggregate of per-page :meth:`read_page` calls with
        explicit ``sequential`` flags.  The batch scan engine charges each
        scan's planned page runs through this."""
        if n_random < 0 or n_sequential < 0:
            raise ValueError("read counts must be >= 0")
        if self.role == "index":
            self.stats.index_random_reads += n_random
            self.stats.index_seq_reads += n_sequential
        else:
            self.stats.data_random_reads += n_random
            self.stats.data_seq_reads += n_sequential

    def read_cost(self, n_random: int, n_sequential: int) -> float:
        """Seconds these page reads cost on this device."""
        return (n_random * self.profile.random_read
                + n_sequential * self.profile.seq_read)

    def write_page(self, page_id: int, sequential: bool) -> None:
        """Count one page write with the stated pattern."""
        if self.role == "index":
            self.stats.index_writes += 1
            self.stats.index_seq_writes += sequential
        else:
            self.stats.data_writes += 1
            self.stats.data_seq_writes += sequential

    def __repr__(self) -> str:  # pragma: no cover
        return f"Device({self.profile.name}, role={self.role})"
