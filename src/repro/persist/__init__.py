"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

Layers, bottom-up:

* :mod:`repro.persist.wal` — length+CRC32-framed mutation log with
  batched fsync and torn-tail-tolerant replay;
* :mod:`repro.persist.snapshot` — checksummed container for any
  backend's ``snapshot_state()`` dict (NumPy filter words and counter
  bytes stored as raw blobs);
* :mod:`repro.persist.manifest` — atomically-replaced JSON commit
  point tying a snapshot and a WAL generation together;
* :mod:`repro.persist.durable` — :class:`DurableIndex`, the
  protocol-conforming wrapper that logs before applying and
  checkpoints on demand or every N ops, plus :func:`recover`;
* :mod:`repro.persist.service` — per-shard durability for the
  sharded serving layer (:func:`make_durable_service` /
  :func:`recover_service`).

This package is the *only* place in ``src/`` allowed to open files in
binary-write mode or define on-disk formats — reprolint's
format-discipline rule enforces that boundary.
"""

from repro.persist.durable import (
    DurableIndex,
    decode_config,
    encode_config,
    recover,
    snapshot_name,
)
from repro.persist.errors import (
    CorruptManifestError,
    CorruptSnapshotError,
    PersistError,
    WALFailedError,
)
from repro.persist.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    atomic_write_json,
    read_manifest,
    write_manifest,
)
from repro.persist.service import (
    SERVICE_MANIFEST,
    SERVICE_VERSION,
    make_durable_service,
    merge_durable_shards,
    recover_service,
    split_durable_shard,
    write_service_manifest,
)
from repro.persist.snapshot import (
    file_crc32,
    read_snapshot,
    write_snapshot,
)
from repro.persist.wal import (
    WriteAheadLog,
    apply_record,
    replay_wal,
    truncate_wal,
)

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SERVICE_MANIFEST",
    "SERVICE_VERSION",
    "CorruptManifestError",
    "CorruptSnapshotError",
    "DurableIndex",
    "PersistError",
    "WALFailedError",
    "WriteAheadLog",
    "apply_record",
    "atomic_write_json",
    "decode_config",
    "encode_config",
    "file_crc32",
    "make_durable_service",
    "merge_durable_shards",
    "read_manifest",
    "read_snapshot",
    "recover",
    "recover_service",
    "replay_wal",
    "snapshot_name",
    "split_durable_shard",
    "truncate_wal",
    "write_manifest",
    "write_service_manifest",
    "write_snapshot",
]
