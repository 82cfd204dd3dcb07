"""I/O accounting: the one record of every charge in a storage stack.

Every experiment in the paper is explained through counts of random versus
sequential page accesses (e.g. Table 3 reports *false reads per search*).
:class:`IOStats` is the single place those counts live, together with the
CPU work (filter probes and inserts, key compares, hash probes, tuples
scanned) the in-memory configurations are priced by.  Devices and indexes
count into it on every charge; simulated time is these counts priced by
the stack (:meth:`repro.storage.config.StorageStack.price`), and the
harness snapshots and diffs it around each probe.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Mutable counter block for one storage stack.

    Counters are split by device role (``index`` vs ``data``) because the
    paper places the index and the main data on different media, and by
    access pattern (random vs sequential), because the two have vastly
    different cost on HDD.  ``*_writes`` count every write and
    ``*_seq_writes`` the sequential ones among them.  ``key_comparisons``
    is a float: a binary search over ``n`` keys counts ``log2(n)``.  The
    counters are an instance's only attributes, so the arithmetic below
    (and the stack's price) runs over its ``vars()`` dict (the charge
    replay and the Router's books call it per charge group and per shard).
    """

    index_random_reads: int = 0
    index_seq_reads: int = 0
    index_writes: int = 0
    data_random_reads: int = 0
    data_seq_reads: int = 0
    data_writes: int = 0
    false_reads: int = 0          # data pages fetched due to BF false positives
    bloom_probes: int = 0
    key_comparisons: float = 0.0
    tuples_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bloom_inserts: int = 0
    hash_probes: int = 0
    index_seq_writes: int = 0
    data_seq_writes: int = 0
    #: Tuples counted in ``tuples_scanned`` that cost no CPU (a clustered
    #: fetch's whole pages, :meth:`Relation.fetch_clustered`).
    uncharged_tuples: int = 0

    def snapshot(self) -> "IOStats":
        """Return an immutable-by-convention copy of the current counters."""
        return IOStats(**vars(self))

    def mark(self) -> tuple[float, ...]:
        """The counters' values in field order: a cheaper snapshot for
        :meth:`add_scaled_diff` and :meth:`StorageStack.since`."""
        return tuple(vars(self).values())

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        was = vars(earlier)
        return IOStats(**{name: now - was[name]
                          for name, now in vars(self).items()})

    def add_scaled_diff(self, mark: tuple[float, ...], factor: int) -> None:
        """Add ``factor`` more copies of the counters accumulated since
        :meth:`mark` returned ``mark`` (a charge sequence replayed
        arithmetically instead of re-run)."""
        counters = vars(self)
        counters.update({name: now + factor * (now - was) for (name, now), was
                         in zip(counters.items(), mark)})

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
