"""Exception types of the durability subsystem."""

from __future__ import annotations


class PersistError(Exception):
    """Base error for checkpoint / WAL / manifest handling."""


class CorruptSnapshotError(PersistError):
    """A snapshot file failed its magic / checksum / shape validation."""


class CorruptManifestError(PersistError):
    """A manifest file is missing, unparsable, or incomplete."""


class WALFailedError(PersistError):
    """A write-ahead log hit an I/O error and refuses further writes
    (fail-stop) until the index is recovered from disk."""
