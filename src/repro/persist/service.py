"""Durable sharded serving: per-shard WAL + checkpoint directories.

:func:`make_durable_service` builds a :class:`ShardedIndex` through the
usual registry path, then wraps every shard's index in a
:class:`DurableIndex` rooted at ``<dir>/shard-<id>/`` — each shard owns
its *own* WAL and snapshot, exactly as the partitions of a distributed
index own their logs.  A top-level ``SERVICE.json`` (written with the
same temp/fsync/rename atomicity as shard manifests) records the shard
layout: kind, column, uniqueness, topology epoch, and one
``{id, lo_key, hi_key}`` record per shard in key-range order.

Shard directories are keyed by **stable shard id**, not by routing
ordinal, so live topology changes never rename a directory that is
still in service.  :func:`split_durable_shard` and
:func:`merge_durable_shards` reshape a durable service on disk with the
same commit discipline the shard manifests use:

1. unwrap the parent ``DurableIndex`` and run the in-memory topology
   op (``split_shard``/``merge_shards``) — every acknowledged op is
   already in the parent's WAL, so a crash here still recovers it;
2. checkpoint each child into its fresh ``shard-<id>`` directory;
3. atomically rewrite ``SERVICE.json`` — **the commit point**: before
   the rename, recovery sees the pre-split layout backed by the intact
   parent directory; after it, the post-split layout backed by the
   children;
4. remove the now-unreferenced parent directory.

:func:`recover_service` reverses it all — read the service manifest,
:func:`~repro.persist.durable.recover` every listed shard directory,
and reassemble the :class:`ShardedIndex` with the recorded fences, ids
and epoch, so the Router serves the exact tree the crashed process had
acknowledged.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any

from repro.api.results import as_scalar
from repro.persist.durable import DurableIndex, decode_config, recover
from repro.persist.errors import CorruptManifestError
from repro.persist.manifest import atomic_write_json, read_manifest
from repro.service.sharded import Shard, ShardedIndex
from repro.storage.relation import Relation

SERVICE_MANIFEST = "SERVICE.json"
SERVICE_VERSION = 2


def _shard_dir(root: Path, shard_id: int) -> Path:
    return root / f"shard-{shard_id:03d}"


def write_service_manifest(root: Path, service: ShardedIndex) -> None:
    """Atomically (re)write ``SERVICE.json`` from the live topology."""
    atomic_write_json(root / SERVICE_MANIFEST, {
        "version": SERVICE_VERSION,
        "kind": service.kind,
        "column": service.key_column,
        "unique": service.unique,
        "epoch": service.topology_epoch,
        "n_shards": service.n_shards,
        "donor_height": service.donor_height,
        "shards": [
            {
                "id": s.shard_id,
                "lo_key": as_scalar(s.lo_key),
                "hi_key": as_scalar(s.hi_key),
            }
            for s in service.shards
        ],
    })


def make_durable_service(
    relation: Relation,
    key_column: str,
    directory: str | Path,
    *,
    n_shards: int = 4,
    kind: str = "bf",
    unique: bool = False,
    config: Any = None,
    sync_every: int = 1,
    checkpoint_every: int | None = None,
    **cfg: Any,
) -> ShardedIndex:
    """Build a sharded service whose every shard is durable.

    Each shard's index is wrapped in a :class:`DurableIndex` with its
    own directory under ``directory`` (initial checkpoint included, so
    the freshly built service is immediately recoverable), and the
    service manifest committing the shard layout is written last.
    ``config`` is the backend builder's own config, as in
    :meth:`ShardedIndex.build`; each shard's manifest records it.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    service = ShardedIndex.build(relation, key_column, n_shards=n_shards,
                                 kind=kind, config=config, unique=unique,
                                 **cfg)
    fpp = cfg.get("fpp")
    for shard in service.shards:
        shard.index = DurableIndex(
            shard.index,
            _shard_dir(root, shard.shard_id),
            sync_every=sync_every,
            checkpoint_every=checkpoint_every,
            kind=kind,
            column=key_column,
            unique=unique,
            fpp=None if fpp is None else float(fpp),
            config=config,
        )
    write_service_manifest(root, service)
    return service


def _manifest_layout(
    root: Path, manifest: dict[str, Any]
) -> tuple[int, list[dict[str, Any]]]:
    """Validate a service manifest's layout: ``(epoch, shard specs)``."""
    specs = manifest.get("shards")
    if not isinstance(specs, list) or not specs:
        raise CorruptManifestError(
            f"service manifest in {root} lacks a shards list"
        )
    if len(specs) != int(manifest["n_shards"]):
        raise CorruptManifestError(
            f"service manifest shards list disagrees with n_shards="
            f"{manifest['n_shards']}"
        )
    for spec in specs:
        if not isinstance(spec, dict) or "id" not in spec:
            raise CorruptManifestError(
                f"malformed shard record in service manifest: {spec!r}"
            )
    return int(manifest.get("epoch", 0)), specs


def recover_service(
    directory: str | Path,
    relation: Relation,
    *,
    sync_every: int | None = None,
    checkpoint_every: int | None = None,
) -> ShardedIndex:
    """Rebuild a durable sharded service from its directory tree.

    Each ``shard-<id>`` directory recovers independently (snapshot +
    WAL-tail replay); the routing fences, stable ids and topology epoch
    come from the service manifest, so routing after recovery is
    identical to routing before the crash — including any splits or
    merges committed before it.
    """
    root = Path(directory)
    manifest = read_manifest(root / SERVICE_MANIFEST,
                             versions=(SERVICE_VERSION,))
    epoch, specs = _manifest_layout(root, manifest)
    shards: list[Shard] = []
    for spec in specs:
        sid = int(spec["id"])
        index = recover(_shard_dir(root, sid), relation,
                        sync_every=sync_every,
                        checkpoint_every=checkpoint_every)
        shards.append(Shard(index=index, lo_key=spec["lo_key"],
                            hi_key=spec["hi_key"], shard_id=sid))
    return ShardedIndex(
        relation,
        str(manifest["column"]),
        shards,
        str(manifest["kind"]),
        bool(manifest["unique"]),
        int(manifest["donor_height"]),
        epoch=epoch,
    )


def _unwrap(service: ShardedIndex, shard_id: int) -> DurableIndex:
    """Expose a durable shard's inner index for a topology change.

    Every acknowledged write is already in the parent's WAL before
    anything moves, so a crash at any point before the manifest rewrite
    still recovers it from the parent's directory.
    """
    shard = service.shard_by_id(shard_id)
    if shard is None:
        raise KeyError(f"shard id {shard_id} is not in the service")
    durable = shard.index
    if not isinstance(durable, DurableIndex):
        raise TypeError(
            f"shard {shard_id} is not durable "
            f"({type(durable).__name__}); use ShardedIndex.split_shard/"
            "merge_shards directly for in-memory services"
        )
    shard.index = durable.inner
    return durable


def _rewrap(
    service: ShardedIndex,
    root: Path,
    shard_id: int,
    template: DurableIndex,
) -> None:
    """Wrap a fresh child shard in its own :class:`DurableIndex`.

    Build inputs (fpp, config, seed) are taken from the parent's shard
    manifest — the same records :func:`recover` trusts — so the child's
    manifest can rebuild the same backend.  The wrapper's initial
    checkpoint makes the child recoverable before the service manifest
    ever references it.
    """
    shard = service.shard_by_id(shard_id)
    assert shard is not None
    parent_manifest = read_manifest(template.manifest_path)
    fpp = parent_manifest.get("fpp")
    seed = parent_manifest.get("seed")
    shard.index = DurableIndex(
        shard.index,
        _shard_dir(root, shard_id),
        sync_every=template.sync_every,
        checkpoint_every=template.checkpoint_every,
        kind=service.kind,
        column=service.key_column,
        unique=service.unique,
        fpp=None if fpp is None else float(fpp),
        config=decode_config(parent_manifest.get("config")),
        seed=None if seed is None else int(seed),
    )


def split_durable_shard(
    service: ShardedIndex,
    directory: str | Path,
    shard_id: int,
    *,
    at: Any = None,
) -> tuple[int, int]:
    """Split one shard of a durable service, committing the new layout.

    Returns the two fresh child shard ids.  Crash-consistent at every
    step: the parent directory is only removed after the rewritten
    ``SERVICE.json`` (the commit point) stops referencing it, and the
    children are checkpointed before that rewrite, so recovery always
    finds a complete layout — pre-split before the rename, post-split
    after it.
    """
    root = Path(directory)
    durable = _unwrap(service, shard_id)
    try:
        left_id, right_id = service.split_shard(shard_id, at=at)
    except BaseException:
        shard = service.shard_by_id(shard_id)
        if shard is not None:          # failed pre-split: restore wrapper
            shard.index = durable
        raise
    durable.close()
    _rewrap(service, root, left_id, durable)
    _rewrap(service, root, right_id, durable)
    write_service_manifest(root, service)
    shutil.rmtree(_shard_dir(root, shard_id), ignore_errors=True)
    return left_id, right_id


def merge_durable_shards(
    service: ShardedIndex,
    directory: str | Path,
    sid_a: int,
    sid_b: int,
) -> int:
    """Merge two adjacent shards of a durable service on disk.

    Returns the fresh merged shard id.  Same commit discipline as
    :func:`split_durable_shard`: both parents' directories outlive the
    manifest rewrite that stops referencing them.
    """
    root = Path(directory)
    durable_a = _unwrap(service, sid_a)
    try:
        durable_b = _unwrap(service, sid_b)
    except BaseException:
        shard_a = service.shard_by_id(sid_a)
        if shard_a is not None:
            shard_a.index = durable_a
        raise
    try:
        merged_id = service.merge_shards(sid_a, sid_b)
    except BaseException:
        for sid, durable in ((sid_a, durable_a), (sid_b, durable_b)):
            shard = service.shard_by_id(sid)
            if shard is not None:      # failed pre-merge: restore wrapper
                shard.index = durable
        raise
    durable_a.close()
    durable_b.close()
    _rewrap(service, root, merged_id, durable_a)
    write_service_manifest(root, service)
    shutil.rmtree(_shard_dir(root, sid_a), ignore_errors=True)
    shutil.rmtree(_shard_dir(root, sid_b), ignore_errors=True)
    return merged_id
