"""Atomic checkpoint manifest: the commit point of a checkpoint.

The manifest is a small JSON file recording the backend kind, build
inputs (column, uniqueness, fpp, config, seed), capability descriptor,
the generation-named snapshot file's name, size and CRC32, and the name
of the WAL *generation* that starts after the checkpoint.  It is written atomically — temp
file, flush, fsync, ``os.replace``, directory fsync — so recovery
always sees either the previous complete checkpoint or the new one,
never a torn in-between.

WAL rotation rides the manifest's atomicity: each checkpoint names a
fresh ``wal-<generation>.log`` in the manifest *before* creating it.
If a crash lands between manifest commit and WAL creation, replay of
the (missing) new log is simply empty — the stale previous-generation
log is never replayed, so checkpointed ops cannot be applied twice.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.persist.errors import CorruptManifestError

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1


def atomic_write_json(path: str | Path, data: dict[str, Any]) -> None:
    """Write JSON with write-temp / fsync / rename atomicity."""
    target = Path(path)
    payload = json.dumps(data, indent=2, sort_keys=True).encode("utf-8")
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, target)
    fsync_dir(target.parent)


def write_manifest(path: str | Path, data: dict[str, Any]) -> None:
    atomic_write_json(path, {"version": MANIFEST_VERSION, **data})


def read_manifest(
    path: str | Path,
    *,
    versions: tuple[int, ...] = (MANIFEST_VERSION,),
) -> dict[str, Any]:
    """Parse and validate a manifest; raise :class:`CorruptManifestError`.

    ``versions`` is the set of format versions the caller can decode —
    shard manifests are at version 1, service manifests at version 2.
    """
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CorruptManifestError(f"manifest missing: {p}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorruptManifestError(
            f"manifest {p.name} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise CorruptManifestError(
            f"manifest {p.name} is {type(data).__name__}, not an object"
        )
    if data.get("version") not in versions:
        expected = "/".join(str(v) for v in versions)
        raise CorruptManifestError(
            f"manifest {p.name} has version {data.get('version')!r}, "
            f"expected {expected}"
        )
    return data


def fsync_dir(directory: Path) -> None:
    """Fsync ``directory`` so a rename into it is durable.

    A failed fsync raises: the rename may not survive a crash, so the
    write it commits must not be reported as committed.  Only a platform
    that cannot open a directory at all skips the sync.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
