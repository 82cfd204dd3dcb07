"""Durability subsystem unit tests: WAL framing, snapshot container,
manifest atomicity, and torn-tail crash tolerance at every byte offset.
"""

from __future__ import annotations

import errno
import json
import os
import shutil

import numpy as np
import pytest

from repro.analysis.sanitize import StructuralCorruption, force
from repro.api import make_index
from repro.persist import (
    CorruptManifestError,
    CorruptSnapshotError,
    DurableIndex,
    WriteAheadLog,
    apply_record,
    read_manifest,
    read_snapshot,
    recover,
    replay_wal,
    truncate_wal,
    write_manifest,
    write_snapshot,
)
from repro.persist.errors import PersistError, WALFailedError
from repro.storage import Relation


@pytest.fixture(scope="module")
def tiny_relation() -> Relation:
    """256 keys / 16 pages: small enough for per-byte crash sweeps."""
    return Relation(
        {"pk": np.arange(256, dtype=np.int64)}, tuple_size=256,
        name="tiny-rel",
    )


def _durable(relation, directory, **kw) -> DurableIndex:
    inner = make_index("bf", relation, "pk", unique=True, fpp=1e-3)
    return DurableIndex(inner, directory, kind="bf", column="pk",
                        unique=True, fpp=1e-3, **kw)


# ======================================================================
# WAL framing
# ======================================================================
class TestWal:
    def test_append_replay_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        records = [
            {"op": "insert", "key": 5, "target": 2},
            {"op": "delete", "key": 9, "target": None},
            {"op": "insert_many", "keys": [1, 2], "targets": [0, 0]},
            {"op": "delete_many", "keys": [3, 4], "targets": None},
        ]
        wal = WriteAheadLog(path)
        for r in records:
            wal.append(r)
        wal.close()
        replayed, valid = replay_wal(path)
        assert replayed == records
        assert valid == path.stat().st_size

    def test_missing_file_is_empty_log(self, tmp_path):
        assert replay_wal(tmp_path / "absent.log") == ([], 0)

    def test_sync_every_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", sync_every=4)
        for i in range(3):
            wal.append({"op": "insert", "key": i, "target": 0})
        assert wal._pending == 3  # below the batch threshold
        wal.append({"op": "insert", "key": 3, "target": 0})
        assert wal._pending == 0  # batch filled -> fsynced
        wal.close()
        assert len(replay_wal(tmp_path / "wal.log")[0]) == 4

    def test_sync_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="sync_every"):
            WriteAheadLog(tmp_path / "wal.log", sync_every=0)

    def test_corrupt_payload_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "insert", "key": 1, "target": 0})
        wal.append({"op": "insert", "key": 2, "target": 0})
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the second frame's payload
        path.write_bytes(bytes(data))
        records, valid = replay_wal(path)
        assert [r["key"] for r in records] == [1]
        assert 0 < valid < len(data)

    def test_truncate_removes_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "insert", "key": 1, "target": 0})
        wal.close()
        good = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\x07\x00\x00\x00garbage")
        _, valid = replay_wal(path)
        truncate_wal(path, valid)
        assert path.stat().st_size == good
        wal2 = WriteAheadLog(path)
        wal2.append({"op": "insert", "key": 2, "target": 0})
        wal2.close()
        assert [r["key"] for r in replay_wal(path)[0]] == [1, 2]

    def test_apply_record_rejects_unknown_op(self):
        with pytest.raises(PersistError, match="unknown WAL op"):
            apply_record(None, {"op": "compact"})


# ======================================================================
# snapshot container
# ======================================================================
class TestSnapshot:
    def test_round_trip_preserves_arrays_and_bytes(self, tmp_path):
        state = {
            "format": "test",
            "words": np.arange(7, dtype=np.uint64),
            "counters": b"\x01\x02\x03",
            "nested": {"grid": np.eye(2, dtype=np.float64), "n": 3},
            "list": [1, "two", None, True],
        }
        path = tmp_path / "snap.bin"
        nbytes, crc = write_snapshot(path, state)
        assert path.stat().st_size == nbytes
        out = read_snapshot(path)
        np.testing.assert_array_equal(out["words"], state["words"])
        assert out["words"].dtype == np.uint64
        assert out["counters"] == b"\x01\x02\x03"
        np.testing.assert_array_equal(out["nested"]["grid"],
                                      state["nested"]["grid"])
        assert out["list"] == [1, "two", None, True]

    def test_numpy_scalars_normalized(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, {"n": np.int64(7), "f": np.float64(0.5),
                              "b": np.bool_(True)})
        out = read_snapshot(path)
        assert out == {"n": 7, "f": 0.5, "b": True}
        assert type(out["n"]) is int

    def test_unserializable_state_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="unserializable"):
            write_snapshot(tmp_path / "s.bin", {"bad": object()})
        with pytest.raises(TypeError, match="keys must be str"):
            write_snapshot(tmp_path / "s.bin", {1: "x"})
        with pytest.raises(TypeError, match="reserved"):
            write_snapshot(tmp_path / "s.bin", {"__ndarray__": 0})

    def test_missing_file_diagnosed(self, tmp_path):
        with pytest.raises(CorruptSnapshotError, match="missing"):
            read_snapshot(tmp_path / "absent.bin")

    def test_bad_magic_diagnosed(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, {"a": 1})
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="bad magic"):
            read_snapshot(path)

    def test_header_bitflip_diagnosed(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, {"a": 1})
        data = bytearray(path.read_bytes())
        data[20] ^= 0x01  # inside the JSON header
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="header checksum"):
            read_snapshot(path)

    def test_blob_bitflip_diagnosed(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, {"words": np.arange(16, dtype=np.uint64)})
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x40  # inside the blob region
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="blob checksum"):
            read_snapshot(path)

    def test_truncation_diagnosed(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, {"words": np.arange(16, dtype=np.uint64)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 32])
        with pytest.raises(CorruptSnapshotError,
                           match="blob region|truncated"):
            read_snapshot(path)


# ======================================================================
# manifest
# ======================================================================
class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        write_manifest(path, {"backend": "bf", "snapshot": {"bytes": 10}})
        data = read_manifest(path)
        assert data["backend"] == "bf"
        assert data["version"] == 1

    def test_missing_diagnosed(self, tmp_path):
        with pytest.raises(CorruptManifestError, match="missing"):
            read_manifest(tmp_path / "MANIFEST.json")

    def test_torn_json_diagnosed(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        path.write_text('{"version": 1, "backend": ')
        with pytest.raises(CorruptManifestError, match="not valid JSON"):
            read_manifest(path)

    def test_wrong_version_diagnosed(self, tmp_path):
        path = tmp_path / "MANIFEST.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CorruptManifestError, match="version"):
            read_manifest(path)

    def test_no_temp_file_left_behind(self, tmp_path):
        write_manifest(tmp_path / "MANIFEST.json", {"backend": "bf"})
        assert [p.name for p in tmp_path.iterdir()] == ["MANIFEST.json"]


# ======================================================================
# recovery-path corruption and crash sweeps
# ======================================================================
class TestRecoveryIntegrity:
    def test_corrupted_snapshot_surfaces_through_recover(
        self, tiny_relation, tmp_path
    ):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.close()
        data = bytearray(index.snapshot_path.read_bytes())
        data[-3] ^= 0x10  # flip a filter bit in the blob region
        index.snapshot_path.write_bytes(bytes(data))
        with pytest.raises(CorruptSnapshotError, match="checksum"):
            recover(d, tiny_relation)

    def test_tampered_state_caught_by_sanitizer(self, tiny_relation):
        """Satellite (c): restore_state tails into the structural
        sanitizer, so a snapshot that passes its checksums but encodes
        an invalid tree still fails loudly with a precise diagnostic."""
        source = make_index("bf", tiny_relation, "pk", unique=True, fpp=1e-3)
        state = source.snapshot_state()
        state["leaves"][0]["nkeys"] = -1
        fresh = make_index("bf", tiny_relation, "pk", unique=True, fpp=1e-3)
        force(True)
        try:
            with pytest.raises(StructuralCorruption, match="negative nkeys"):
                fresh.restore_state(state)
        finally:
            force(None)

    def test_torn_tail_at_every_byte_offset(self, tiny_relation, tmp_path):
        """The WAL crash-tolerance property: for every possible torn
        tail length, recovery (a) never raises, (b) applies exactly the
        longest intact record prefix, and (c) never half-applies the
        op whose frame the crash tore."""
        d = tmp_path / "full"
        index = _durable(tiny_relation, d)
        ops = [("delete", k) for k in (3, 50, 99, 140, 200, 255)]
        for _, k in ops:
            index.delete(k)
        index.insert(50, index.write_target(50))
        index.close()
        full_records, full_bytes = replay_wal(index.wal_path)
        assert len(full_records) == len(ops) + 1

        checkpoint_files = [index.manifest_path.name,
                            index.snapshot_path.name]
        wal_name = index.wal_path.name
        wal_bytes = index.wal_path.read_bytes()
        assert full_bytes == len(wal_bytes)

        frame_ends = []
        offset = 0
        for _ in full_records:
            _, offset = replay_wal_prefix(wal_bytes, offset)
            frame_ends.append(offset)

        for cut in range(len(wal_bytes) + 1):
            crash_dir = tmp_path / "crash"
            if crash_dir.exists():
                shutil.rmtree(crash_dir)
            crash_dir.mkdir()
            for name in checkpoint_files:
                shutil.copy(d / name, crash_dir / name)
            (crash_dir / wal_name).write_bytes(wal_bytes[:cut])

            recovered = recover(crash_dir, tiny_relation)
            expect_n = sum(1 for end in frame_ends if end <= cut)
            survivors, valid = replay_wal(recovered.wal_path)
            assert survivors == full_records[:expect_n], cut
            assert valid == (frame_ends[expect_n - 1] if expect_n else 0)
            # The op after the torn frame must not be half-applied:
            # its key still resolves exactly as the prefix dictates.
            if expect_n < len(ops):
                _, key = ops[expect_n]
                assert recovered.search(key).found, cut
            recovered.close()

    def test_recovered_wal_accepts_new_appends(self, tiny_relation,
                                               tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.delete(10)
        index.close()
        r1 = recover(d, tiny_relation)
        r1.delete(20)
        r1.close()
        r2 = recover(d, tiny_relation)
        assert not r2.search(10).found
        assert not r2.search(20).found
        assert r2.search(30).found
        r2.close()

    def test_checkpoint_rotates_generation(self, tiny_relation, tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        gen1_wal = index.wal_path
        index.delete(5)
        manifest = index.checkpoint()
        assert manifest["wal"]["generation"] == 2
        assert not gen1_wal.exists()
        assert index.wal_path.name == manifest["wal"]["file"]
        index.delete(6)
        index.close()
        r = recover(d, tiny_relation)
        assert not r.search(5).found and not r.search(6).found
        assert len(replay_wal(r.wal_path)[0]) == 1  # only the post-rotation op
        r.close()

    def test_checkpoint_every_triggers_automatically(self, tiny_relation,
                                                     tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d, checkpoint_every=3)
        for k in (1, 2, 3):
            index.delete(k)
        # Third op crossed the threshold: WAL rotated, log empty again.
        assert replay_wal(index.wal_path)[0] == []
        assert read_manifest(index.manifest_path)["ops_at_checkpoint"] == 3
        index.close()

    def test_batch_ops_replay_as_batches(self, tiny_relation, tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.delete_many([7, 8, 9], [None, None, None])
        index.insert_many([8], [index.write_target(8)])
        index.close()
        ops = [r["op"] for r in replay_wal(index.wal_path)[0]]
        assert ops == ["delete_many", "insert_many"]
        r = recover(d, tiny_relation)
        assert not r.search(7).found and not r.search(9).found
        assert r.search(8).found
        r.close()


# ======================================================================
# review regressions: checkpoint atomicity, failed-op compensation,
# recorded build inputs, recovery counters, required build inputs
# ======================================================================
class TestCheckpointAtomicity:
    def test_snapshots_are_generation_named_and_rotated(self, tiny_relation,
                                                        tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        first = index.snapshot_path
        assert first.name == "snapshot-00000001.bin"
        index.delete(5)
        index.checkpoint()
        assert index.snapshot_path.name == "snapshot-00000002.bin"
        assert index.snapshot_path.exists()
        assert not first.exists()  # stale generation unlinked post-commit
        index.close()

    def test_crash_between_snapshot_write_and_manifest_commit(
        self, tiny_relation, tmp_path, monkeypatch
    ):
        """A checkpoint that dies after writing the new snapshot but
        before the manifest replace must leave the directory fully
        recoverable to the *old* checkpoint + WAL tail."""
        import repro.persist.durable as durable_mod

        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.delete(42)

        def boom(path, data):
            raise RuntimeError("simulated crash before manifest commit")

        monkeypatch.setattr(durable_mod, "write_manifest", boom)
        with pytest.raises(RuntimeError, match="simulated crash"):
            index.checkpoint()
        monkeypatch.undo()

        r = recover(d, tiny_relation)
        assert not r.search(42).found  # the acknowledged op survived
        assert r.search(41).found
        r.close()


class TestFailedOpCompensation:
    def test_failed_op_is_rolled_out_of_the_wal(self, tiny_relation,
                                                tmp_path):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.delete(7)
        with pytest.raises(ValueError, match="below leaf range"):
            index.insert(5, -1)  # BFTree rejects the out-of-range pid
        index.delete(9)
        index.close()
        records, _ = replay_wal(index.wal_path)
        assert [r["op"] for r in records] == ["delete", "delete"]
        r = recover(d, tiny_relation)
        assert not r.search(7).found and not r.search(9).found
        assert r.search(5).found  # the failed insert left no trace
        r.close()

    def test_replay_skips_record_of_an_op_that_failed(self, tiny_relation,
                                                      tmp_path):
        """Crash inside the rollback window: the failed op's frame is
        still in the log.  Replay re-attempts it, it deterministically
        fails again, and recovery skips it instead of aborting."""
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        index.delete(3)
        index.close()
        wal = WriteAheadLog(index.wal_path)
        wal.append({"op": "insert", "key": 5, "target": -1})
        wal.close()
        r = recover(d, tiny_relation)
        assert not r.search(3).found
        assert r._ops_since_checkpoint == 1  # failed record doesn't count
        r.close()


class TestWalIoErrors:
    """Fail-stop WAL: an I/O error poisons the log, the failed record is
    rolled back out, and nothing after it is accepted or synced."""

    @staticmethod
    def _fail_wal_fsync(monkeypatch, index, nth):
        """Make the ``nth`` fsync of ``index``'s WAL raise EIO; returns
        the list of WAL fsync outcomes seen so far."""
        real_fsync = os.fsync
        wal_fd = index._wal._file.fileno()
        seen: list[str] = []

        def fsync(fd):
            if fd == wal_fd:
                if len(seen) + 1 == nth:
                    seen.append("EIO")
                    raise OSError(errno.EIO, "injected fsync failure")
                seen.append("ok")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return seen

    def test_fsync_error_on_record_two_of_three(self, tiny_relation,
                                                tmp_path, monkeypatch):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d, sync_every=1)
        self._fail_wal_fsync(monkeypatch, index, nth=2)
        index.delete(1)                         # acknowledged
        with pytest.raises(OSError) as failed:
            index.delete(2)                     # its fsync fails
        assert failed.value.errno == errno.EIO
        with pytest.raises(WALFailedError):
            index.delete(3)                     # refused: log poisoned
        index.close()
        monkeypatch.undo()
        records, _ = replay_wal(index.wal_path)
        assert [r["key"] for r in records] == [1]
        r = recover(d, tiny_relation)
        assert not r.search(1).found
        assert r.search(2).found and r.search(3).found
        r.close()

    def test_short_write_is_cut_back_out(self, tiny_relation, tmp_path,
                                         monkeypatch):
        """Record 2 is half written before the disk fills: the torn frame
        is truncated away, so no later record can land behind it."""
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d, sync_every=1)
        real_write = os.write
        wal_fd = index._wal._file.fileno()
        calls: list[int] = []

        def write(fd, data):
            if fd == wal_fd:
                calls.append(len(data))
                if len(calls) == 2:
                    return real_write(fd, bytes(data[: len(data) // 2]))
                if len(calls) == 3:
                    raise OSError(errno.ENOSPC, "injected disk full")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", write)
        index.delete(1)
        with pytest.raises(OSError):
            index.delete(2)
        with pytest.raises(WALFailedError):
            index.delete(3)
        index.close()
        monkeypatch.undo()
        records, valid = replay_wal(index.wal_path)
        assert [r["key"] for r in records] == [1]
        assert valid == index.wal_path.stat().st_size
        r = recover(d, tiny_relation)
        assert not r.search(1).found and r.search(2).found
        r.close()

    def test_poisoned_log_refuses_writes_and_never_resyncs(
            self, tiny_relation, tmp_path, monkeypatch):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d, sync_every=4)
        seen = self._fail_wal_fsync(monkeypatch, index, nth=1)
        index.delete(1)
        with pytest.raises(OSError):
            index.sync()
        with pytest.raises(WALFailedError):
            index.insert_many([5], [0])
        with pytest.raises(WALFailedError):
            index.sync()
        with pytest.raises(WALFailedError):
            index.checkpoint()
        index.close()
        assert seen == ["EIO"]                  # no retry, no sync on close
        monkeypatch.undo()
        r = recover(d, tiny_relation)           # recovery reopens cleanly
        r.delete(7)
        assert not r.search(7).found
        r.close()


class TestRecordedBuildInputs:
    def test_manifest_records_config_and_recovery_restores_it(
        self, tiny_relation, tmp_path
    ):
        from repro.core.bf_tree import BFTree, BFTreeConfig

        cfg = BFTreeConfig(fpp=0.02, pages_per_bf=2)
        inner = BFTree.bulk_load(tiny_relation, "pk", cfg, unique=True)
        d = tmp_path / "idx"
        index = DurableIndex(inner, d, kind="bf", column="pk", unique=True,
                             config=cfg)
        manifest = read_manifest(index.manifest_path)
        assert manifest["config"]["kind"] == "dataclass"
        assert manifest["config"]["fields"]["pages_per_bf"] == 2
        index.close()
        r = recover(d, tiny_relation)
        assert isinstance(r._config, BFTreeConfig)
        assert r._config == cfg
        r.close()

    def test_recorded_seed_reaches_the_builder_on_recovery(
        self, tiny_relation, tmp_path
    ):
        from repro.api import registry

        built_seeds: list[int | None] = []

        def _build_seeded(relation, column, *, unique=False, config=None,
                          fpp=None, seed=None):
            built_seeds.append(seed)
            return make_index("bf", relation, column, unique=unique, fpp=fpp)

        registry.register("seeded-bf-test", _build_seeded, replace=True)
        try:
            inner = _build_seeded(tiny_relation, "pk", unique=True, fpp=1e-3,
                                  seed=7)
            d = tmp_path / "idx"
            index = DurableIndex(inner, d, kind="seeded-bf-test", column="pk",
                                 unique=True, fpp=1e-3, seed=7)
            index.close()
            r = recover(d, tiny_relation)
            assert built_seeds[-1] == 7
            r.close()
        finally:
            # The registry has no public deregister; drop the test-only
            # backend so registry-sweeping tests don't see it.
            registry._REGISTRY.pop("seeded-bf-test", None)

    def test_unrecordable_config_rejected_before_checkpoint(
        self, tiny_relation, tmp_path
    ):
        inner = make_index("bf", tiny_relation, "pk", unique=True, fpp=1e-3)
        with pytest.raises(PersistError, match="not recordable"):
            DurableIndex(inner, tmp_path / "idx", kind="bf", column="pk",
                         config=object())
        assert not (tmp_path / "idx" / "MANIFEST.json").exists()


class TestRecoveryCounters:
    def test_replayed_tail_counts_toward_next_auto_checkpoint(
        self, tiny_relation, tmp_path
    ):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d, checkpoint_every=5)
        for k in (1, 2, 3):
            index.delete(k)
        index.close()
        r = recover(d, tiny_relation)
        assert r._ops_since_checkpoint == 3
        r.delete(4)
        r.delete(5)  # fifth op since the checkpoint -> rotation
        assert replay_wal(r.wal_path)[0] == []
        assert read_manifest(r.manifest_path)["ops_at_checkpoint"] == 5
        r.close()

    def test_recovery_checkpoints_when_tail_crosses_threshold(
        self, tiny_relation, tmp_path
    ):
        d = tmp_path / "idx"
        index = _durable(tiny_relation, d)
        for k in (1, 2, 3, 4):
            index.delete(k)
        index.close()
        r = recover(d, tiny_relation, checkpoint_every=3)
        assert replay_wal(r.wal_path)[0] == []  # checkpointed during recovery
        assert read_manifest(r.manifest_path)["ops_at_checkpoint"] == 4
        r.close()


class TestRequiredBuildInputs:
    def test_missing_or_empty_kind_and_column_rejected(self, tiny_relation,
                                                       tmp_path):
        inner = make_index("bf", tiny_relation, "pk", unique=True, fpp=1e-3)
        with pytest.raises(TypeError):
            DurableIndex(inner, tmp_path / "a")  # kind/column now required
        with pytest.raises(ValueError, match="backend kind"):
            DurableIndex(inner, tmp_path / "b", kind="", column="pk")
        with pytest.raises(ValueError, match="column"):
            DurableIndex(inner, tmp_path / "c", kind="bf", column="")
        # No unrecoverable directory was committed by any of the above.
        for name in ("a", "b", "c"):
            assert not (tmp_path / name / "MANIFEST.json").exists()


def replay_wal_prefix(data: bytes, offset: int) -> tuple[dict, int]:
    """Step one frame forward (test helper mirroring the WAL layout)."""
    import struct
    import zlib

    length, crc = struct.unpack_from("<II", data, offset)
    start = offset + 8
    payload = data[start:start + length]
    assert zlib.crc32(payload) == crc
    return json.loads(payload), start + length
