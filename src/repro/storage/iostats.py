"""I/O accounting: page-read/write counters shared across a storage stack.

Every experiment in the paper is explained through counts of random versus
sequential page accesses (e.g. Table 3 reports *false reads per search*).
:class:`IOStats` is the single place those counts live.  Devices update it
on every access; the harness snapshots and diffs it around each probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class IOStats:
    """Mutable counter block for one storage stack.

    Counters are split by device role (``index`` vs ``data``) because the
    paper places the index and the main data on different media, and by
    access pattern (random vs sequential), because the two have vastly
    different cost on HDD.
    """

    index_random_reads: int = 0
    index_seq_reads: int = 0
    index_writes: int = 0
    data_random_reads: int = 0
    data_seq_reads: int = 0
    data_writes: int = 0
    false_reads: int = 0          # data pages fetched due to BF false positives
    bloom_probes: int = 0
    key_comparisons: int = 0
    tuples_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> "IOStats":
        """Return an immutable-by-convention copy of the current counters."""
        return IOStats(**{name: getattr(self, name) for name in _FIELDS})

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        return IOStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _FIELDS
            }
        )

    def add_scaled_diff(self, earlier: "IOStats", factor: int) -> None:
        """Add ``factor`` more copies of the counters accumulated since
        ``earlier`` was snapshotted (a charge sequence replayed
        arithmetically instead of re-run)."""
        for name in _FIELDS:
            now = getattr(self, name)
            setattr(self, name, now + factor * (now - getattr(earlier, name)))

    @property
    def total_reads(self) -> int:
        """All page reads, both devices, both access patterns."""
        return (
            self.index_random_reads
            + self.index_seq_reads
            + self.data_random_reads
            + self.data_seq_reads
        )

    @property
    def data_reads(self) -> int:
        """Page reads against the data device only."""
        return self.data_random_reads + self.data_seq_reads

    @property
    def index_reads(self) -> int:
        """Page reads against the index device only."""
        return self.index_random_reads + self.index_seq_reads

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _FIELDS
            }
        )


#: Counter names, computed once: ``dataclasses.fields`` per call showed
#: up in write-path profiles (snapshot/diff run around every op).
_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(IOStats))


@dataclass
class ProbeResult:
    """Outcome of a single measured index probe."""

    found: bool
    latency: float                # simulated seconds
    io: IOStats = field(default_factory=IOStats)
    matches: int = 0              # tuples returned

    @property
    def false_reads(self) -> int:
        return self.io.false_reads
