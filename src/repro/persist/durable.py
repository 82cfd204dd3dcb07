"""DurableIndex: WAL + checkpoint wrapper around any registered backend.

The wrapper owns one directory::

    <dir>/MANIFEST.json             atomic commit point (see manifest.py)
    <dir>/snapshot-<generation>.bin checksummed structural snapshot
    <dir>/wal-<generation>.log      framed mutation log since the checkpoint

Every mutation is logged *before* it is applied (WAL-before-apply), and
acknowledged once the log record is fsynced (``sync_every`` batches
fsyncs).  When the inner op raises instead of applying, the just-written
record is rolled back out of the log (:meth:`WriteAheadLog.rollback`),
so a failed op is never resurrected by replay.  The same rollback
covers a record whose own write or fsync failed: the log is then
poisoned (fail-stop, see :mod:`repro.persist.wal`) and the index refuses
writes and checkpoints until it is recovered.  If a crash lands inside
that rollback window, replay re-attempts the op, which deterministically
fails against the same tree state and is skipped — at-most-once for
failed ops, exactly-once for acknowledged ones.

:meth:`DurableIndex.checkpoint` snapshots the inner backend's structural
state through the protocol's ``snapshot_state()`` hook into a *new*
generation-named file, commits the manifest, and only then unlinks the
previous generation's snapshot and WAL.  The manifest replace is the
single commit point: a crash anywhere in a checkpoint leaves either the
old complete checkpoint (manifest still names the old snapshot + WAL,
both untouched) or the new one — never a torn in-between.

:func:`recover` rebuilds the backend from the manifest's build inputs
(kind, column, uniqueness, fpp, config, seed), restores the snapshot,
replays the WAL tail (truncating any torn frames), and returns a live
wrapper — the recovered tree is *bit-identical* to the crashed one up to
the last acknowledged op: same search/scan results, same simulated I/O
charges, same structural sanitizer verdict.

Reads delegate straight to the inner backend; the WAL is real file I/O
outside the storage simulator, so durability never perturbs IOStats or
the simulated clock.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.api.protocol import Capabilities, Index, IndexBackend
from repro.api.results import (
    DeleteOutcome,
    RangeScanResult,
    SearchResult,
    as_scalar,
)
from repro.persist.errors import (
    CorruptManifestError,
    CorruptSnapshotError,
    PersistError,
)
from repro.persist.manifest import MANIFEST_NAME, read_manifest, write_manifest
from repro.persist.snapshot import file_crc32, read_snapshot, write_snapshot
from repro.persist.wal import (
    WriteAheadLog,
    apply_record,
    replay_wal,
    truncate_wal,
)

_T = TypeVar("_T")


def _wal_name(generation: int) -> str:
    return f"wal-{generation:08d}.log"


def snapshot_name(generation: int) -> str:
    """Snapshot file name for one checkpoint generation.

    Snapshots are generation-named (like the WAL) so a checkpoint never
    overwrites the file the committed manifest still references — the
    old snapshot survives until the new manifest replaces it.
    """
    return f"snapshot-{generation:08d}.bin"


def encode_config(config: Any) -> dict[str, Any] | None:
    """Manifest-recordable form of a builder ``config`` object.

    ``None`` stays ``None``; a dataclass (e.g. ``BFTreeConfig``) is
    recorded as its import path plus JSON-safe field dict; any plain
    JSON value is recorded verbatim.  Anything else raises
    :class:`PersistError` — refusing the checkpoint up front beats
    silently recovering a differently-configured structure later.
    """
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        cls = type(config)
        fields = dataclasses.asdict(config)
        if not _jsonable(fields):
            raise PersistError(
                f"build config {cls.__name__} has non-JSON-serializable "
                f"fields; a DurableIndex cannot record it in the manifest"
            )
        return {"kind": "dataclass",
                "class": f"{cls.__module__}:{cls.__qualname__}",
                "fields": fields}
    if _jsonable(config):
        return {"kind": "value", "value": config}
    raise PersistError(
        f"build config of type {type(config).__name__} is not recordable "
        f"in the manifest (pass None, a JSON value, or a dataclass with "
        f"JSON-safe fields); refusing to create an unrecoverable checkpoint"
    )


def decode_config(entry: Any) -> Any:
    """Inverse of :func:`encode_config`, used during recovery."""
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise CorruptManifestError(
            f"manifest config entry is {type(entry).__name__}, not an object"
        )
    kind = entry.get("kind")
    if kind == "value":
        return entry["value"]
    if kind == "dataclass":
        module, _, qualname = str(entry["class"]).partition(":")
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        fields = entry.get("fields")
        if not isinstance(fields, dict):
            raise CorruptManifestError(
                "manifest config entry lacks a fields object"
            )
        return obj(**fields)
    raise CorruptManifestError(
        f"manifest config entry has unknown kind {kind!r}"
    )


def _jsonable(value: Any) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _record_op_count(record: dict[str, Any]) -> int:
    """How many ops a WAL record carries (batches count per key)."""
    op = str(record.get("op", ""))
    if op.endswith("_many"):
        return len(record["keys"])
    return 1


class DurableIndex(IndexBackend):
    """Crash-safe wrapper conforming to the same Index protocol.

    ``kind`` / ``column`` / ``unique`` / ``fpp`` / ``config`` / ``seed``
    are the build inputs recorded in the manifest so :func:`recover` can
    reconstruct the inner backend via the registry before restoring its
    snapshot.  ``kind`` and ``column`` are required (an omitted kind
    would commit a manifest no recovery could ever use); ``config`` must
    be manifest-recordable (see :func:`encode_config`); a non-``None``
    ``seed`` is passed back to the registered builder on recovery, so it
    only makes sense for backends whose builder accepts a ``seed``
    keyword.
    """

    backend_name = "durable"
    supports_sharding = False

    def __init__(
        self,
        inner: Index,
        directory: str | Path,
        *,
        kind: str,
        column: str,
        sync_every: int = 1,
        checkpoint_every: int | None = None,
        unique: bool = False,
        fpp: float | None = None,
        config: Any = None,
        seed: int | None = None,
        _recovered_generation: int | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if not kind:
            raise ValueError(
                "DurableIndex requires a non-empty backend kind (e.g. "
                "kind='bf'); without it recover() could never rebuild "
                "the inner index"
            )
        if not column:
            raise ValueError(
                "DurableIndex requires a non-empty indexed column name; "
                "without it recover() could never rebuild the inner index"
            )
        self.inner = inner
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_every = sync_every
        self.checkpoint_every = checkpoint_every
        self._kind = kind
        self._column = column
        self._unique = unique
        self._fpp = fpp
        self._config = config
        self._config_entry = encode_config(config)
        self._seed = seed
        self._ops_total = 0
        self._ops_since_checkpoint = 0
        self._log_suspended = False
        self._generation = 0
        self._wal: WriteAheadLog | None = None
        if _recovered_generation is None:
            # Initial checkpoint: the bulk-loaded state must itself be
            # recoverable before the first mutation is acknowledged.
            self.checkpoint()
        else:
            # recover() restored the snapshot and replayed the tail;
            # reopen the manifest's WAL generation in append mode.
            self._generation = _recovered_generation
            self._wal = WriteAheadLog(
                self.directory / _wal_name(self._generation),
                sync_every=sync_every,
            )

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / snapshot_name(self._generation)

    @property
    def wal_path(self) -> Path:
        return self.directory / _wal_name(self._generation)

    # ------------------------------------------------------------------
    # protocol surface: reads delegate, writes log first
    # ------------------------------------------------------------------
    def bind(self, stack: Any, warm: bool = False) -> None:
        self.inner.bind(stack, warm=warm)

    def unbind(self) -> None:
        self.inner.unbind()

    def capabilities(self) -> Capabilities:
        return dataclasses.replace(self.inner.capabilities(), durable=True)

    def write_target(self, tid: int) -> int:
        return self.inner.write_target(tid)

    def search(self, key: Any) -> SearchResult:
        return self.inner.search(key)

    def search_many(self, keys: Sequence[Any],
                    latency_sink: list[float] | None = None
                    ) -> list[SearchResult]:
        return self.inner.search_many(keys, latency_sink=latency_sink)

    def range_scan(self, lo: Any, hi: Any) -> RangeScanResult:
        return self.inner.range_scan(lo, hi)

    def range_scan_many(self, windows: Sequence[tuple[Any, Any]],
                        latency_sink: list[float] | None = None
                        ) -> list[RangeScanResult]:
        return self.inner.range_scan_many(windows,
                                          latency_sink=latency_sink)

    def insert(self, key: Any, target: int) -> None:
        self._require_mutable("insert")
        k = as_scalar(key)
        self._log_apply(
            {"op": "insert", "key": k, "target": int(target)},
            lambda: self.inner.insert(k, target),
        )
        self._note_ops(1)

    def delete(self, key: Any, target: int | None = None) -> DeleteOutcome:
        self._require_mutable("delete")
        k = as_scalar(key)
        outcome = self._log_apply(
            {"op": "delete", "key": k,
             "target": None if target is None else int(target)},
            lambda: self.inner.delete(k, target),
        )
        self._note_ops(1)
        return outcome

    def insert_many(self, keys: Sequence[Any], targets: Sequence[int],
                    latency_sink: list[float] | None = None) -> None:
        self._require_mutable("insert_many")
        ks = [as_scalar(k) for k in keys]
        self._log_apply(
            {"op": "insert_many", "keys": ks,
             "targets": [int(t) for t in targets]},
            lambda: self.inner.insert_many(ks, targets,
                                           latency_sink=latency_sink),
        )
        self._note_ops(len(ks))

    def delete_many(self, keys: Sequence[Any],
                    targets: Sequence[int | None] | None = None,
                    latency_sink: list[float] | None = None
                    ) -> list[DeleteOutcome]:
        self._require_mutable("delete_many")
        ks = [as_scalar(k) for k in keys]
        outcomes = self._log_apply(
            {
                "op": "delete_many",
                "keys": ks,
                "targets": None if targets is None else [
                    None if t is None else int(t) for t in targets
                ],
            },
            lambda: self.inner.delete_many(ks, targets,
                                           latency_sink=latency_sink),
        )
        self._note_ops(len(ks))
        return outcomes

    def snapshot_state(self) -> dict[str, Any]:
        return self.inner.snapshot_state()

    def restore_state(self, state: dict[str, Any]) -> None:
        self.inner.restore_state(state)

    @property
    def height(self) -> int:
        return self.inner.height

    @property
    def n_leaves(self) -> int:
        return self.inner.n_leaves

    @property
    def size_pages(self) -> int:
        return self.inner.size_pages

    # ------------------------------------------------------------------
    # durability machinery
    # ------------------------------------------------------------------
    def _require_mutable(self, op: str) -> None:
        if not self.inner.capabilities().mutable:
            raise self._unsupported(op, "mutable")

    def _log_apply(self, record: dict[str, Any],
                   apply: Callable[[], _T]) -> _T:
        """WAL-before-apply with compensation.

        The record is framed (and acknowledged per ``sync_every``)
        before the inner op runs; if the op raises, the record is
        rolled back out of the log so replay cannot resurrect an op the
        caller observed as failed.  A failed *batch* op may leave the
        live inner tree partially applied (the backend's own contract),
        but after a crash the whole batch is absent — recovery only
        replays acknowledged records.
        """
        if self._log_suspended:
            return apply()  # reprolint: disable=D1 -- replay path: the op is already framed in the WAL being replayed; logging it again would double-apply it on recovery
        wal = self._wal
        assert wal is not None
        wal.check_writable()
        start = wal.nbytes
        try:
            # A failed append (write or fsync) may have left part or all
            # of the frame in the file: it is rolled back like a failed
            # apply, so recovery cannot replay an op that was never acked.
            wal.append(record)
            return apply()
        except BaseException:
            wal.rollback(start)
            raise

    def _note_ops(self, n: int) -> None:
        if self._log_suspended:
            return
        self._ops_total += n
        self._ops_since_checkpoint += n
        if (self.checkpoint_every is not None
                and self._ops_since_checkpoint >= self.checkpoint_every):
            self.checkpoint()

    @contextmanager
    def suspended_logging(self) -> Iterator[None]:
        """Apply mutations without writing (or counting) WAL records.

        For state-reconstruction replays of *already-logged* ops: the
        process executor serializes WAL appends through the worker that
        owns a shard, and the parent later re-applies the same batches
        to rebuild its in-memory copy — re-framing those records here
        would duplicate them in the log and double recovery.  Checkpoint
        triggering is suppressed alongside (op counts were taken when
        the records were framed)."""
        prev = self._log_suspended
        self._log_suspended = True
        try:
            yield
        finally:
            self._log_suspended = prev

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the inner backend, commit the manifest, rotate the WAL.

        The snapshot is written to a fresh generation-named file and the
        manifest names the *next* WAL generation before that file
        exists; the previous generation's snapshot and WAL are unlinked
        only after the manifest replace.  A crash at any step therefore
        leaves either the old checkpoint intact (manifest not yet
        replaced, old snapshot and WAL still on disk) or the new one
        with an empty log — never a state that would fail to recover or
        replay already-checkpointed ops.
        """
        old_wal = self._wal
        if old_wal is not None:
            # Fail-stop: a poisoned log's unacknowledged tail must not be
            # folded into a new checkpoint; the index has to be recovered.
            old_wal.check_writable()
            old_wal.close()
            self._wal = None
        generation = self._generation + 1
        new_snapshot = self.directory / snapshot_name(generation)
        nbytes, crc = write_snapshot(new_snapshot,
                                     self.inner.snapshot_state())
        manifest: dict[str, Any] = {
            "backend": self._kind,
            "column": self._column,
            "unique": self._unique,
            "fpp": self._fpp,
            "config": self._config_entry,
            "seed": self._seed,
            "capabilities": dataclasses.asdict(self.capabilities()),
            "sync_every": self.sync_every,
            "checkpoint_every": self.checkpoint_every,
            "snapshot": {"file": new_snapshot.name, "bytes": nbytes,
                         "crc32": crc},
            "wal": {"file": _wal_name(generation),
                    "generation": generation},
            "ops_at_checkpoint": self._ops_total,
        }
        write_manifest(self.manifest_path, manifest)
        stale_wal = self.directory / _wal_name(self._generation)
        stale_snapshot = self.directory / snapshot_name(self._generation)
        self._generation = generation
        self._wal = WriteAheadLog(self.wal_path, sync_every=self.sync_every)
        stale_wal.unlink(missing_ok=True)
        stale_snapshot.unlink(missing_ok=True)
        self._ops_since_checkpoint = 0
        return manifest

    def sync(self) -> None:
        """Force-acknowledge any unsynced WAL tail."""
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


def recover(
    directory: str | Path,
    relation: Any,
    *,
    sync_every: int | None = None,
    checkpoint_every: int | None = None,
) -> DurableIndex:
    """Rebuild a :class:`DurableIndex` from its directory.

    Sequence: read the manifest (commit point), rebuild the inner
    backend from the recorded build inputs (kind, column, uniqueness,
    fpp, config, seed) via the registry, verify and restore the
    snapshot, replay the WAL tail (truncating torn frames), and reopen
    the log for appending.  Every acknowledged op is re-applied; a torn
    tail op was never acknowledged and disappears.  A replayed record
    whose op raises is skipped: it can only be the residue of an op
    that failed before its rollback completed, and it deterministically
    fails again here (see :meth:`DurableIndex._log_apply`).
    """
    from repro.api.registry import make_index

    d = Path(directory)
    manifest = read_manifest(d / MANIFEST_NAME)
    kind = manifest.get("backend")
    column = manifest.get("column")
    if not isinstance(kind, str) or not kind:
        raise CorruptManifestError(
            f"manifest in {d} does not name a backend kind"
        )
    if not isinstance(column, str) or not column:
        raise CorruptManifestError(
            f"manifest in {d} does not name an indexed column"
        )
    unique = bool(manifest.get("unique", False))
    fpp = manifest.get("fpp")
    config = decode_config(manifest.get("config"))
    seed = manifest.get("seed")
    build_extra: dict[str, Any] = {}
    if config is not None:
        build_extra["config"] = config
    if seed is not None:
        # Only forwarded when recorded: built-in builders take no seed,
        # and a manifest only records one when the original caller
        # passed it (to a builder that accepts it).
        build_extra["seed"] = seed
    inner = make_index(kind, relation, column, unique=unique, fpp=fpp,
                       **build_extra)

    snap = manifest.get("snapshot")
    wal_info = manifest.get("wal")
    if not isinstance(snap, dict) or not isinstance(wal_info, dict):
        raise CorruptManifestError(
            f"manifest in {d} lacks snapshot/wal records"
        )
    snapshot_path = d / str(snap["file"])
    try:
        found_crc = file_crc32(snapshot_path)
    except FileNotFoundError:
        raise CorruptSnapshotError(
            f"snapshot file missing: {snapshot_path}"
        ) from None
    if found_crc != int(snap["crc32"]):
        raise CorruptSnapshotError(
            f"snapshot {snapshot_path.name} checksum {found_crc:#010x} "
            f"disagrees with manifest {int(snap['crc32']):#010x}"
        )
    if snapshot_path.stat().st_size != int(snap["bytes"]):
        raise CorruptSnapshotError(
            f"snapshot {snapshot_path.name} is "
            f"{snapshot_path.stat().st_size} bytes, manifest records "
            f"{int(snap['bytes'])}"
        )
    inner.restore_state(read_snapshot(snapshot_path))

    wal_path = d / str(wal_info["file"])
    records, valid_bytes = replay_wal(wal_path)
    truncate_wal(wal_path, valid_bytes)
    replayed_ops = 0
    for record in records:
        try:
            apply_record(inner, record)
        except (LookupError, ValueError):
            continue
        replayed_ops += _record_op_count(record)

    index = DurableIndex(
        inner,
        d,
        sync_every=(int(manifest.get("sync_every", 1))
                    if sync_every is None else sync_every),
        checkpoint_every=(manifest.get("checkpoint_every")
                          if checkpoint_every is None else checkpoint_every),
        kind=kind,
        column=column,
        unique=unique,
        fpp=None if fpp is None else float(fpp),
        config=config,
        seed=seed,
        _recovered_generation=int(wal_info["generation"]),
    )
    index._ops_total = int(manifest.get("ops_at_checkpoint", 0)) + replayed_ops
    # The replayed tail still counts toward the next auto-checkpoint —
    # otherwise repeated crash/recover cycles would let the WAL grow
    # well past the checkpoint_every bound.
    index._ops_since_checkpoint = replayed_ops
    if (index.checkpoint_every is not None
            and replayed_ops >= index.checkpoint_every):
        index.checkpoint()
    return index
