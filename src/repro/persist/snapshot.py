"""Checksummed snapshot container for backend structural state.

File layout::

    b"RPSNAP01" | u32 header_len | u32 crc32(header) | header JSON | blobs

The header holds the backend's ``snapshot_state()`` dict with every
binary value (NumPy arrays — a BF-leaf's filter page, add counts and,
for counting filters, counter page — and byte strings) swapped for an
index into the trailing blob region: ``{"__ndarray__": i, "dtype": ...,
"shape": [...]}`` or ``{"__bytes__": i}``.  ``blob_lens`` in the header slices the region
back apart and ``blob_crc`` checksums it, so corruption anywhere in the
file — header or bits — surfaces as :class:`CorruptSnapshotError` with
a precise diagnostic instead of a silently wrong tree.

Writes are atomic: temp file, flush, fsync, ``os.replace``, directory
fsync — a crash mid-checkpoint leaves the previous snapshot intact.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.results import as_scalar
from repro.persist.errors import CorruptSnapshotError
from repro.persist.manifest import fsync_dir

MAGIC = b"RPSNAP01"
_HEAD = struct.Struct("<II")  # (header length, CRC32 of header)

_MARKERS = ("__ndarray__", "__bytes__")


def _encode(value: Any, blobs: list[bytes]) -> Any:
    """JSON-safe copy of ``value`` with binary payloads moved to blobs."""
    if isinstance(value, (np.integer, np.bool_)):
        return as_scalar(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        ref = {"__ndarray__": len(blobs), "dtype": str(value.dtype),
               "shape": list(value.shape)}
        blobs.append(np.ascontiguousarray(value).tobytes())
        return ref
    if isinstance(value, (bytes, bytearray)):
        blobs.append(bytes(value))
        return {"__bytes__": len(blobs) - 1}
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"snapshot dict keys must be str, got {type(key).__name__}"
                )
            if key in _MARKERS:
                raise TypeError(f"snapshot dict key {key!r} is reserved")
            out[key] = _encode(item, blobs)
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(item, blobs) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"snapshot state contains unserializable {type(value).__name__}"
    )


def _decode(value: Any, blobs: list[bytes]) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            raw = blobs[int(value["__ndarray__"])]
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return arr.reshape([int(d) for d in value["shape"]]).copy()
        if "__bytes__" in value:
            return blobs[int(value["__bytes__"])]
        return {key: _decode(item, blobs) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item, blobs) for item in value]
    return value


def write_snapshot(path: str | Path, state: dict[str, Any]) -> tuple[int, int]:
    """Atomically write ``state``; return ``(file_bytes, file_crc32)``."""
    target = Path(path)
    blobs: list[bytes] = []
    encoded = _encode(state, blobs)
    blob_region = b"".join(blobs)
    header = {
        "state": encoded,
        "blob_lens": [len(b) for b in blobs],
        "blob_crc": zlib.crc32(blob_region),
    }
    hjson = json.dumps(header, separators=(",", ":"),
                       sort_keys=True).encode("utf-8")
    body = MAGIC + _HEAD.pack(len(hjson), zlib.crc32(hjson)) + hjson
    body += blob_region
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(body)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, target)
    fsync_dir(target.parent)
    return len(body), zlib.crc32(body)


def read_snapshot(path: str | Path) -> dict[str, Any]:
    """Read and fully verify a snapshot; raise on any corruption."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        raise CorruptSnapshotError(f"snapshot file missing: {p}") from None
    if len(data) < len(MAGIC) + _HEAD.size:
        raise CorruptSnapshotError(
            f"snapshot {p.name} is {len(data)} bytes: too short for the "
            f"{len(MAGIC) + _HEAD.size}-byte container header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshotError(
            f"snapshot {p.name} has bad magic {data[:len(MAGIC)]!r} "
            f"(expected {MAGIC!r})"
        )
    hlen, hcrc = _HEAD.unpack_from(data, len(MAGIC))
    hstart = len(MAGIC) + _HEAD.size
    hend = hstart + hlen
    if hend > len(data):
        raise CorruptSnapshotError(
            f"snapshot {p.name} header truncated: declares {hlen} bytes, "
            f"file holds {len(data) - hstart}"
        )
    hbytes = data[hstart:hend]
    found = zlib.crc32(hbytes)
    if found != hcrc:
        raise CorruptSnapshotError(
            f"snapshot {p.name} header checksum mismatch: expected "
            f"{hcrc:#010x}, found {found:#010x}"
        )
    header = json.loads(hbytes.decode("utf-8"))
    blob_region = data[hend:]
    lens = [int(n) for n in header["blob_lens"]]
    if sum(lens) != len(blob_region):
        raise CorruptSnapshotError(
            f"snapshot {p.name} blob region is {len(blob_region)} bytes, "
            f"header declares {sum(lens)}"
        )
    blob_crc = zlib.crc32(blob_region)
    if blob_crc != int(header["blob_crc"]):
        raise CorruptSnapshotError(
            f"snapshot {p.name} blob checksum mismatch: expected "
            f"{int(header['blob_crc']):#010x}, found {blob_crc:#010x}"
        )
    blobs: list[bytes] = []
    offset = 0
    for n in lens:
        blobs.append(blob_region[offset:offset + n])
        offset += n
    state = _decode(header["state"], blobs)
    if not isinstance(state, dict):
        raise CorruptSnapshotError(
            f"snapshot {p.name} state is {type(state).__name__}, not a dict"
        )
    return state


def file_crc32(path: str | Path) -> int:
    """CRC32 of a whole file (for manifest cross-checks)."""
    return zlib.crc32(Path(path).read_bytes())

