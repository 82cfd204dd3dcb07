"""Kill-9 crash-recovery tests: the durability acceptance bar.

A child process builds a durable index (or a durable 4-shard service),
then performs a burst of acknowledged mutations — printing ``ACK i``
only after the op's WAL record is fsynced (``sync_every=1``).  The
parent SIGKILLs the child mid-burst, recovers from the surviving
directory, and asserts:

* **zero lost acknowledged ops** — every acked delete is really gone;
* **bit-identical state** — the recovered tree equals a reference
  index that applied exactly the replayed WAL prefix: same search
  results over the whole key space, same structural footprint;
* the structural sanitizer passes on the recovered tree.

Deletes of resident keys are the acknowledged-visible op of choice:
``search(k).found`` flips from True to False, so durability failures
are observable through the public protocol alone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sanitize import check, force
from repro.api import make_index
from repro.persist import recover, recover_service, replay_wal
from repro.persist.wal import apply_record
from repro.storage import Relation

ROOT = Path(__file__).resolve().parents[1]

#: Odd multiplier: i -> (i * MULT) % N is a bijection for power-of-two N,
#: spreading the delete burst over all leaves (and all shards).
MULT = 2741

CHILD_SINGLE = """
import sys
import numpy as np
from repro.api import make_index
from repro.persist import DurableIndex
from repro.storage import Relation

directory, n_keys = sys.argv[1], int(sys.argv[2])
rel = Relation({"pk": np.arange(n_keys, dtype=np.int64)}, tuple_size=256,
               name="crash-rel")
inner = make_index("bf", rel, "pk", unique=True, fpp=1e-3)
index = DurableIndex(inner, directory, sync_every=1, kind="bf",
                     column="pk", unique=True, fpp=1e-3)
print("READY", flush=True)
for i in range(n_keys):
    key = (i * %d) %% n_keys
    index.delete(key)
    print(f"ACK {key}", flush=True)
""" % MULT

#: The service children's burst: each delete is a one-op Router replay,
#: which a durable shard logs as a ``delete_many`` WAL record.
SERVICE_BURST = """
service.bind("MEM/SSD")
router = Router(service)
print("READY", flush=True)
for i in range(n_keys):
    key = (i * %d) %% n_keys
    router.replay(MixedTrace(
        ops=np.array([OP_DELETE], dtype=np.uint8),
        keys=np.array([key], dtype=np.int64),
        tids=np.array([-1], dtype=np.int64),
        scan_widths=np.zeros(1, dtype=np.int64),
        mix=MIXES["read_heavy"], skew="uniform", theta=0.99, seed=0))
    print(f"ACK {key}", flush=True)
""" % MULT

CHILD_SERVICE = """
import sys
import numpy as np
from repro.persist import make_durable_service
from repro.service import Router
from repro.storage import Relation
from repro.workloads import MIXES, OP_DELETE, MixedTrace

directory, n_keys = sys.argv[1], int(sys.argv[2])
rel = Relation({"pk": np.arange(n_keys, dtype=np.int64)}, tuple_size=256,
               name="crash-rel")
service = make_durable_service(rel, "pk", directory, n_shards=4, kind="bf",
                               unique=True, sync_every=1, fpp=1e-3)
assert service.n_shards == 4, service.n_shards
""" + SERVICE_BURST

CHILD_SPLIT_SERVICE = """
import sys
import numpy as np
from repro.persist import make_durable_service, split_durable_shard
from repro.service import Router
from repro.storage import Relation
from repro.workloads import MIXES, OP_DELETE, MixedTrace

directory, n_keys = sys.argv[1], int(sys.argv[2])
rel = Relation({"pk": np.arange(n_keys, dtype=np.int64)}, tuple_size=256,
               name="crash-rel")
service = make_durable_service(rel, "pk", directory, n_shards=2, kind="bf",
                               unique=True, sync_every=1, fpp=1e-3)
assert service.n_shards == 2, service.n_shards
victim = max(service.shards, key=lambda s: s.index.n_leaves).shard_id
split_durable_shard(service, directory, victim)
assert service.topology_epoch == 1
assert service.n_shards == 3
""" + SERVICE_BURST


def _run_child_until(script: str, directory: Path, n_keys: int,
                     kill_after: int, tmp_path: Path) -> list[int]:
    """Start the child, SIGKILL it after ``kill_after`` acks, return
    the acknowledged keys."""
    child_py = tmp_path / "child.py"
    child_py.write_text(script)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, str(child_py), str(directory), str(n_keys)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    acked: list[int] = []
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline().strip()
        if ready != "READY":  # build crashed: surface the stderr
            _, err = proc.communicate(timeout=30)
            pytest.fail(f"child failed before READY: {ready!r}\n{err}")
        while len(acked) < kill_after:
            line = proc.stdout.readline()
            if not line:
                _, err = proc.communicate(timeout=30)
                pytest.fail(f"child exited early after {len(acked)} "
                            f"acks\n{err}")
            acked.append(int(line.split()[1]))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait(timeout=30)
    return acked


def _relation(n_keys: int) -> Relation:
    return Relation({"pk": np.arange(n_keys, dtype=np.int64)},
                    tuple_size=256, name="crash-rel")


def test_kill9_durable_index_recovers_every_acked_op(tmp_path):
    n_keys, kill_after = 8192, 48
    directory = tmp_path / "idx"
    acked = _run_child_until(CHILD_SINGLE, directory, n_keys, kill_after,
                             tmp_path)
    assert len(acked) == kill_after

    rel = _relation(n_keys)
    recovered = recover(directory, rel)

    # Zero lost acknowledged ops.
    replayed, _ = replay_wal(recovered.wal_path)
    assert len(replayed) >= kill_after
    replayed_keys = [r["key"] for r in replayed]
    assert replayed_keys[:kill_after] == acked
    for key in acked:
        assert not recovered.search(key).found, key

    # Bit-identity: a reference tree that applied exactly the replayed
    # prefix matches the recovered tree everywhere.
    reference = make_index("bf", rel, "pk", unique=True, fpp=1e-3)
    for record in replayed:
        apply_record(reference, record)
    assert recovered.height == reference.height
    assert recovered.n_leaves == reference.n_leaves
    assert recovered.size_pages == reference.size_pages
    probes = list(range(0, n_keys, 61)) + acked + [n_keys, -1]
    got = recovered.search_many(probes)
    want = reference.search_many(probes)
    assert got == want

    # The recovered structure passes the sanitizer.
    force(True)
    try:
        check(recovered)
    finally:
        force(None)
    recovered.close()


def test_kill9_sharded_service_recovers_every_acked_op(tmp_path):
    n_keys, kill_after = 32768, 32
    directory = tmp_path / "svc"
    acked = _run_child_until(CHILD_SERVICE, directory, n_keys, kill_after,
                             tmp_path)
    assert len(acked) == kill_after

    rel = _relation(n_keys)
    service = recover_service(directory, rel)
    assert service.n_shards == 4

    # Zero lost acknowledged ops, across whichever shard owned each key.
    for key in acked:
        assert not service.search(key).found, key
    replayed_total = sum(
        len(replay_wal(shard.index.wal_path)[0]) for shard in service.shards
    )
    assert replayed_total >= kill_after

    # Bit-identity against a reference applying every replayed record
    # (the service's WALs partition the op stream by shard).
    reference = make_index("bf", rel, "pk", unique=True, fpp=1e-3)
    replayed_keys = set()
    for shard in service.shards:
        for record in replay_wal(shard.index.wal_path)[0]:
            apply_record(reference, record)
            replayed_keys.update(record.get("keys", [record.get("key")]))
    assert set(acked) <= replayed_keys
    probes = list(range(0, n_keys, 131)) + acked
    got = [service.search(k) for k in probes]
    want = [reference.search(k) for k in probes]
    assert got == want

    force(True)
    try:
        check(service)
    finally:
        force(None)


def test_kill9_post_split_topology_survives_recovery(tmp_path):
    """A durable split commits: kill-9 after it, recover the new layout."""
    n_keys, kill_after = 32768, 24
    directory = tmp_path / "svc"
    acked = _run_child_until(CHILD_SPLIT_SERVICE, directory, n_keys,
                             kill_after, tmp_path)
    assert len(acked) == kill_after

    rel = _relation(n_keys)
    service = recover_service(directory, rel)

    # The post-split topology came back intact: epoch 1, three shards,
    # the two fresh child ids present, exactly one original survivor.
    assert service.topology_epoch == 1
    assert service.n_shards == 3
    ids = set(service.table.shard_ids)
    assert {2, 3} <= ids
    assert len(ids & {0, 1}) == 1
    # Directory tree matches the manifest: one dir per live shard, the
    # split parent's directory is gone.
    on_disk = {p.name for p in directory.iterdir() if p.is_dir()}
    assert on_disk == {f"shard-{sid:03d}" for sid in ids}
    # Routing fences are contiguous: each shard's lo is the previous
    # boundary, and the fresh children abut at the split boundary.
    entries = service.table.entries
    assert entries[0].lo_key is None
    for left, right in zip(entries, entries[1:]):
        left_shard = service.shard_by_id(left.shard_id)
        assert left_shard is not None
        assert right.lo_key > (left.lo_key if left.lo_key is not None
                               else -1)

    # Zero lost acknowledged ops across the rebalanced layout.
    for key in acked:
        assert not service.search(key).found, key

    # Bit-identity against a reference applying every replayed record.
    reference = make_index("bf", rel, "pk", unique=True, fpp=1e-3)
    for shard in service.shards:
        for record in replay_wal(shard.index.wal_path)[0]:
            apply_record(reference, record)
    probes = list(range(0, n_keys, 131)) + acked
    got = [service.search(k) for k in probes]
    want = [reference.search(k) for k in probes]
    assert got == want

    force(True)
    try:
        check(service)
    finally:
        force(None)
    for shard in service.shards:
        shard.index.close()
