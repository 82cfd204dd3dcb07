"""I/O accounting: page-read/write counters shared across a storage stack.

Every experiment in the paper is explained through counts of random versus
sequential page accesses (e.g. Table 3 reports *false reads per search*).
:class:`IOStats` is the single place those counts live.  Devices update it
on every access; the harness snapshots and diffs it around each probe.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Mutable counter block for one storage stack.

    Counters are split by device role (``index`` vs ``data``) because the
    paper places the index and the main data on different media, and by
    access pattern (random vs sequential), because the two have vastly
    different cost on HDD.  The counters are an instance's only
    attributes, so the arithmetic below runs over its ``vars()`` dict
    (the charge replay and the Router's books call it per charge group
    and per shard).
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

    def snapshot(self) -> "IOStats":
        """Return an immutable-by-convention copy of the current counters."""
        return IOStats(**vars(self))

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        was = vars(earlier)
        return IOStats(**{name: now - was[name]
                          for name, now in vars(self).items()})

    def add_scaled_diff(self, earlier: "IOStats", factor: int) -> None:
        """Add ``factor`` more copies of the counters accumulated since
        ``earlier`` was snapshotted (a charge sequence replayed
        arithmetically instead of re-run)."""
        counters, was = vars(self), vars(earlier)
        counters.update({name: now + factor * (now - was[name])
                         for name, now in counters.items()})

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
        more = vars(other)
        return IOStats(**{name: now + more[name]
                          for name, now in vars(self).items()})
