"""Write-ahead log: length+CRC32-framed JSON records, fsync-batched.

Frame layout (little-endian)::

    u32 payload_length | u32 crc32(payload) | payload (compact JSON)

One frame per logged mutation — ``insert`` / ``delete`` carry the op's
key and *native* write target (``write_target`` has already been applied
by the caller, so replay feeds the target straight back to the backend);
``insert_many`` / ``delete_many`` carry parallel key/target lists and
replay as one batch call, exactly as they were issued.

Durability contract: a record is *acknowledged* once :meth:`
WriteAheadLog.sync` has run past it (``sync_every`` batches fsyncs).
On replay, :func:`replay_wal` stops at the first incomplete, checksum-
failing or unparsable frame — a torn tail from a crash mid-write — and
reports the byte offset of the last good frame so the caller can
truncate the tail away.  A half-written frame is therefore never
half-applied: it simply does not exist after recovery.

I/O errors are fail-stop: the first failed write, fsync or truncate
*poisons* the log.  A failed fsync is never retried (the kernel may
already have dropped the dirty pages and would report the retry as a
success), a poisoned log refuses every further append and sync, and
closing it does not sync.  Only :meth:`WriteAheadLog.rollback` still
runs, so the caller can cut the failed record back out; after that the
owner must recover from the checkpoint and the acknowledged tail.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO

from repro.persist.errors import PersistError, WALFailedError

_FRAME = struct.Struct("<II")  # (payload length, CRC32 of payload)


class WriteAheadLog:
    """Append-only framed log with batched fsync.

    ``sync_every=1`` (the default) fsyncs after every record — each op
    is acknowledged as soon as ``append`` returns.  Larger values batch
    ``sync_every`` records per fsync; unsynced records may be lost in a
    crash, which is exactly the acknowledged-ops contract the kill-9
    recovery test verifies.

    The file is unbuffered: every frame goes straight to the OS, so
    nothing written for a failed record can linger in a user-space
    buffer and reach the file after a rollback.
    """

    def __init__(self, path: str | Path, *, sync_every: int = 1) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.path = Path(path)
        self.sync_every = sync_every
        self._file: BinaryIO = open(self.path, "ab", buffering=0)
        self._pending = 0
        self._error: OSError | None = None

    def check_writable(self) -> None:
        """Raise :class:`WALFailedError` if the log is poisoned."""
        if self._error is not None:
            raise WALFailedError(
                f"write-ahead log {self.path} failed with "
                f"{self._error!r}; it refuses writes until the index is "
                "recovered"
            ) from self._error

    def _poison(self, exc: OSError) -> None:
        if self._error is None:
            self._error = exc

    def append(self, record: dict[str, Any]) -> None:
        """Frame and write one record; fsync when the batch fills."""
        self.check_writable()
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        frame = memoryview(
            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )
        fd = self._file.fileno()
        try:
            while frame:
                frame = frame[os.write(fd, frame):]
        except OSError as exc:
            self._poison(exc)
            raise
        self._pending += 1
        if self._pending >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Fsync: everything appended so far is acknowledged.

        A failure poisons the log; the fsync is never retried.
        """
        self.check_writable()
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            self._poison(exc)
            raise
        self._pending = 0

    def rollback(self, offset: int) -> None:
        """Durably cut the log back to ``offset``.

        The compensating action for WAL-before-apply: when the inner op
        raises after its record was framed (and possibly fsynced), the
        caller rolls the log back so a crash-recovery replay cannot
        resurrect an op its caller observed as failed.  The truncation
        is itself fsynced; records before ``offset`` are acknowledged as
        a side effect.  It also runs on a poisoned log — cutting out the
        record whose write or fsync failed is the point — and an error
        here poisons the log as well.
        """
        fd = self._file.fileno()
        try:
            os.truncate(fd, offset)
            os.fsync(fd)
        except OSError as exc:
            self._poison(exc)
            raise
        self._file.seek(offset)
        self._pending = 0

    def close(self) -> None:
        """Sync and close; a poisoned log is closed without syncing."""
        if not self._file.closed:
            try:
                if self._error is None:
                    self.sync()
            finally:
                self._file.close()

    @property
    def nbytes(self) -> int:
        """Bytes written so far (including any unsynced tail)."""
        return self._file.tell()


def replay_wal(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Decode ``(records, valid_bytes)`` from a WAL file.

    Stops at the first torn frame — short header, short payload, CRC
    mismatch, or unparsable JSON — and returns the prefix of intact
    records plus the byte offset they end at.  A missing file is an
    empty log (fresh post-checkpoint state), not an error.
    """
    p = Path(path)
    if not p.exists():
        return [], 0
    data = p.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    while True:
        if offset + _FRAME.size > len(data):
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset


def truncate_wal(path: str | Path, valid_bytes: int) -> None:
    """Cut a torn tail off the log so later appends start clean."""
    p = Path(path)
    if p.exists() and p.stat().st_size > valid_bytes:
        os.truncate(p, valid_bytes)


def apply_record(index: Any, record: dict[str, Any]) -> None:
    """Re-apply one replayed WAL record to ``index`` (no re-logging)."""
    op = record.get("op")
    if op == "insert":
        index.insert(record["key"], int(record["target"]))
    elif op == "delete":
        target = record["target"]
        index.delete(record["key"], None if target is None else int(target))
    elif op == "insert_many":
        index.insert_many(list(record["keys"]),
                          [int(t) for t in record["targets"]])
    elif op == "delete_many":
        targets = record["targets"]
        index.delete_many(
            list(record["keys"]),
            None if targets is None else [
                None if t is None else int(t) for t in targets
            ],
        )
    else:
        raise PersistError(f"unknown WAL op {op!r}")
