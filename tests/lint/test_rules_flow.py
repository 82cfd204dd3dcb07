"""CFG/dataflow rules (D1–D3, E1–E2, R1): every rule proven on a
known-bad/known-good pair, and every known-bad snippet shown to be
invisible to the ported pattern rules (``only=PORTED_IDS``) — the flat
linter could not express these orderings.
"""

import numpy as np
import pytest

from repro.analysis.lint import PORTED_IDS, lint_source


def ids_of(violations):
    return sorted({v.rule for v in violations})


PERSIST = "src/repro/persist/durable.py"
EXECUTOR = "src/repro/service/executor.py"
SERVICE = "src/repro/service/rebalance.py"


# ======================================================================
# D1 — log-before-apply
# ======================================================================
D1_BAD = (
    "class DurableIndex:\n"
    "    def insert(self, key, tid):\n"
    "        if self._fast_path:\n"
    "            return self.inner.insert(key, tid)\n"
    "        self._wal.append({'op': 'insert'})\n"
    "        return self.inner.insert(key, tid)\n"
)

D1_GOOD = (
    "class DurableIndex:\n"
    "    def insert(self, key, tid):\n"
    "        self._wal.append({'op': 'insert'})\n"
    "        return self.inner.insert(key, tid)\n"
)


class TestD1LogBeforeApply:
    def test_branch_skipping_append_flagged(self):
        vs = lint_source(D1_BAD, PERSIST)
        assert ids_of(vs) == ["D1"]
        [v] = vs
        assert v.line == 4  # the un-logged arm, not the logged one
        assert "log-before-apply" in v.message

    def test_append_dominating_apply_is_clean(self):
        assert lint_source(D1_GOOD, PERSIST) == []

    def test_apply_param_call_flagged_without_append(self):
        src = (
            "class DurableIndex:\n"
            "    def _log_apply(self, record, apply):\n"
            "        return apply()\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]

    def test_append_only_on_one_branch_flagged(self):
        src = (
            "class DurableIndex:\n"
            "    def delete(self, key):\n"
            "        if self._wal is not None:\n"
            "            self._wal.append({'op': 'delete'})\n"
            "        return self.inner.delete(key)\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]
        assert vs[0].line == 5

    def test_mutation_inside_lambda_is_an_argument_not_a_site(self):
        src = (
            "class DurableIndex:\n"
            "    def insert(self, key, tid):\n"
            "        return self._log_apply(\n"
            "            {'op': 'insert'},\n"
            "            lambda: self.inner.insert(key, tid))\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_unlogged_apply_many_flagged(self):
        src = (
            "class DurableIndex:\n"
            "    def apply_many(self, ops, latency_sink=None):\n"
            "        return self.inner.apply_many(ops, latency_sink)\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D1"]
        assert "self.inner.apply_many()" in vs[0].message

    def test_apply_many_after_run_records_is_clean(self):
        src = (
            "class DurableIndex:\n"
            "    def apply_many(self, ops, latency_sink=None):\n"
            "        records = runs(ops)\n"
            "        first, *rest = records\n"
            "        self._wal.append(first)\n"
            "        for record in rest:\n"
            "            self._wal.append(record)\n"
            "        return self.inner.apply_many(ops, latency_sink)\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_other_classes_are_exempt(self):
        src = D1_BAD.replace("DurableIndex", "CacheIndex")
        assert lint_source(src, PERSIST) == []


# ======================================================================
# D2 — commit-point-last
# ======================================================================
D2_BAD = (
    "import shutil\n"
    "def retire(dirpath, manifest):\n"
    "    shutil.rmtree(dirpath / 'gen-0')\n"
    "    write_manifest(dirpath, manifest)\n"
)

D2_GOOD = (
    "import shutil\n"
    "def retire(dirpath, manifest):\n"
    "    write_manifest(dirpath, manifest)\n"
    "    shutil.rmtree(dirpath / 'gen-0')\n"
)


class TestD2CommitPointLast:
    def test_removal_before_commit_flagged(self):
        vs = lint_source(D2_BAD, PERSIST)
        assert ids_of(vs) == ["D2"]
        assert vs[0].line == 3
        assert "commit-point-last" in vs[0].message

    def test_commit_dominating_removal_is_clean(self):
        assert lint_source(D2_GOOD, PERSIST) == []

    def test_removal_on_branch_around_commit_flagged(self):
        src = (
            "def checkpoint(dirpath, manifest, old):\n"
            "    if manifest is not None:\n"
            "        write_manifest(dirpath, manifest)\n"
            "    old.unlink()\n"
        )
        vs = lint_source(src, PERSIST)
        assert ids_of(vs) == ["D2"]

    def test_pure_teardown_function_is_exempt(self):
        src = (
            "import shutil\n"
            "def destroy(dirpath):\n"
            "    shutil.rmtree(dirpath)\n"
        )
        assert lint_source(src, PERSIST) == []

    def test_rule_scoped_to_persist(self):
        assert lint_source(D2_BAD, "src/repro/core/sweeper.py") == []


# ======================================================================
# D3 — fsync-before-ack
# ======================================================================
D3_BAD = (
    "def _worker_main(conn, service):\n"
    "    while True:\n"
    "        out = work(service)\n"
    "        conn.send(('ok', out))\n"
    "        service.index.sync()\n"
)

D3_GOOD = (
    "def _worker_main(conn, service):\n"
    "    while True:\n"
    "        out = work(service)\n"
    "        service.index.sync()\n"
    "        conn.send(('ok', out))\n"
)


class TestD3FsyncBeforeAck:
    def test_ack_before_sync_flagged(self):
        vs = lint_source(D3_BAD, EXECUTOR)
        assert ids_of(vs) == ["D3"]
        assert vs[0].line == 4
        assert "fsync-before-ack" in vs[0].message

    def test_sync_dominating_ack_is_clean(self):
        assert lint_source(D3_GOOD, EXECUTOR) == []

    def test_transitive_sync_helper_is_recognized(self):
        src = (
            "def _sync_index(index):\n"
            "    index.sync()\n"
            "def _worker_main(conn, shard):\n"
            "    out = work(shard)\n"
            "    _sync_index(shard.index)\n"
            "    conn.send(('ok', out))\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_bye_handshake_needs_sync_too(self):
        src = (
            "def _worker_main(conn, service):\n"
            "    conn.send(('bye',))\n"
        )
        assert ids_of(lint_source(src, EXECUTOR)) == ["D3"]

    def test_error_and_stop_sends_are_not_acks(self):
        src = (
            "def _worker_main(conn, exc):\n"
            "    conn.send(('err', exc))\n"
            "    conn.send(('stop',))\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_rule_scoped_to_executor_module(self):
        assert lint_source(D3_BAD, "src/repro/service/router.py") == []


# ======================================================================
# E1 — epoch discipline (dataflow generalization of P4)
# ======================================================================
E1_BAD = (
    "def grow(service, table, key):\n"
    "    pos = table.route(key)\n"
    "    service.split_shard(pos)\n"
    "    return service.shards[pos]\n"
)

E1_GOOD = (
    "def grow(service, table, key):\n"
    "    pos = table.route(key)\n"
    "    service.split_shard(pos)\n"
    "    pos = table.route(key)\n"
    "    return service.shards[pos]\n"
)


class TestE1EpochDiscipline:
    def test_ordinal_reused_across_bump_flagged(self):
        vs = lint_source(E1_BAD, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 4
        assert "epoch" in vs[0].message

    def test_rederived_ordinal_is_clean(self):
        assert lint_source(E1_GOOD, SERVICE) == []

    def test_passing_ordinal_into_the_bumper_itself_is_clean(self):
        src = (
            "def shrink(service, table, key):\n"
            "    pos = table.ordinal_of(key)\n"
            "    service.merge_shards(pos, pos + 1)\n"
        )
        assert lint_source(src, SERVICE) == []

    def test_taint_propagates_through_derived_values(self):
        src = (
            "def grow(service, table, key):\n"
            "    pos = table.route(key)\n"
            "    hint = pos + 1\n"
            "    service.split_shard(pos)\n"
            "    return use(hint)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 5

    def test_transitive_bumper_is_recognized(self):
        src = (
            "def _grow(service, pos):\n"
            "    service.split_shard(pos)\n"
            "def control(service, table, key):\n"
            "    pos = table.route(key)\n"
            "    _grow(service, pos)\n"
            "    return use(pos)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 6

    def test_stable_shard_ids_are_not_tainted(self):
        src = (
            "def grow(service, table, key):\n"
            "    sid = table.id_at(table.route(key))\n"
            "    service.split_shard(sid)\n"
            "    return service.shard_by_id(sid)\n"
        )
        assert lint_source(src, SERVICE) == []

    def test_loop_carried_staleness_flagged(self):
        # The epoch bump happens on iteration N; the reuse is the same
        # statement on iteration N+1.  Only flow analysis sees this.
        src = (
            "def storm(service, table, keys):\n"
            "    pos = table.route(keys[0])\n"
            "    for key in keys:\n"
            "        service.split_shard(pos)\n"
        )
        vs = lint_source(src, SERVICE)
        assert ids_of(vs) == ["E1"]
        assert vs[0].line == 4

    def test_rule_scoped_like_p4(self):
        assert lint_source(E1_BAD, "src/repro/service/sharded.py") == []
        assert lint_source(E1_BAD, "src/repro/core/bf_tree.py") == []


# ======================================================================
# E2 — suspended-context discipline
# ======================================================================
E2_BAD = (
    "class Exec:\n"
    "    def flush(self, core, sid):\n"
    "        batches = self._journal.get(sid)\n"
    "        for batch in batches:\n"
    "            core.replay_shard(sid, batch)\n"
)

E2_GOOD = (
    "class Exec:\n"
    "    def flush(self, service, core, sid):\n"
    "        batches = self._journal.get(sid)\n"
    "        with service.suspended_charges(sid):\n"
    "            for batch in batches:\n"
    "                core.replay_shard(sid, batch)\n"
)


class TestE2SuspendedContext:
    def test_unsuspended_journal_replay_flagged(self):
        vs = lint_source(E2_BAD, EXECUTOR)
        assert ids_of(vs) == ["E2"]
        assert vs[0].line == 5
        assert "suspended" in vs[0].message

    def test_suspended_replay_is_clean(self):
        assert lint_source(E2_GOOD, EXECUTOR) == []

    def test_transitive_suspending_context_manager_is_recognized(self):
        src = (
            "from contextlib import contextmanager\n"
            "@contextmanager\n"
            "def _quiet(index):\n"
            "    with index.suspended_logging():\n"
            "        yield\n"
            "class Exec:\n"
            "    def flush(self, core, sid):\n"
            "        batches = self._journal.get(sid)\n"
            "        with _quiet(core.index):\n"
            "            for batch in batches:\n"
            "                core.replay_shard(sid, batch)\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_replay_of_non_journal_batches_is_clean(self):
        src = (
            "class Exec:\n"
            "    def recover(self, core, sid, remaining):\n"
            "        if self._journal:\n"
            "            pass\n"
            "        for batch in remaining:\n"
            "            core.replay_shard(sid, batch)\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_rule_scoped_to_service(self):
        assert lint_source(E2_BAD, "src/repro/core/bf_tree.py") == []


# ======================================================================
# R1 — SharedMemory lifecycle
# ======================================================================
R1_BAD_EXC = (
    "def ship(arr):\n"
    "    shm = SharedMemory(create=True, size=arr.nbytes)\n"
    "    fill(shm.buf, arr)\n"
    "    publish(shm.name)\n"
    "    shm.close()\n"
    "    shm.unlink()\n"
)

R1_GOOD_EXC = (
    "def ship(arr):\n"
    "    shm = SharedMemory(create=True, size=arr.nbytes)\n"
    "    try:\n"
    "        fill(shm.buf, arr)\n"
    "        publish(shm.name)\n"
    "    finally:\n"
    "        shm.close()\n"
    "        shm.unlink()\n"
)


class TestR1SharedMemoryLifecycle:
    def test_leak_on_exception_path_flagged(self):
        vs = lint_source(R1_BAD_EXC, EXECUTOR)
        assert ids_of(vs) == ["R1"]
        [v] = vs
        assert v.line == 2  # reported at the creation site
        assert "exception path" in v.message

    def test_try_finally_cleanup_is_clean(self):
        assert lint_source(R1_GOOD_EXC, EXECUTOR) == []

    def test_missing_unlink_on_return_path_flagged(self):
        src = (
            "def ship(arr):\n"
            "    shm = SharedMemory(create=True, size=8)\n"
            "    shm.close()\n"
            "    return None\n"
        )
        vs = lint_source(src, EXECUTOR)
        assert ids_of(vs) == ["R1"]
        assert "unlink()" in vs[0].message

    def test_cleanup_in_reraising_handler_is_clean(self):
        src = (
            "def ship(conn, arr):\n"
            "    shm = SharedMemory(create=True, size=8)\n"
            "    try:\n"
            "        conn.send(shm.name)\n"
            "    except BaseException:\n"
            "        shm.close()\n"
            "        shm.unlink()\n"
            "        raise\n"
            "    return shm\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_escape_transfers_ownership(self):
        src = (
            "def ship(queue, arr):\n"
            "    shm = SharedMemory(create=True, size=8)\n"
            "    queue.append(shm)\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_attach_by_name_is_not_tracked(self):
        src = (
            "def read(name):\n"
            "    shm = SharedMemory(name=name)\n"
            "    data = bytes(shm.buf)\n"
            "    shm.close()\n"
            "    return data\n"
        )
        assert lint_source(src, EXECUTOR) == []

    def test_creation_failure_itself_is_not_a_leak(self):
        src = (
            "def ship(arr):\n"
            "    shm = SharedMemory(create=True, size=8)\n"
            "    shm.close()\n"
            "    shm.unlink()\n"
        )
        assert lint_source(src, EXECUTOR) == []


# ======================================================================
# the flat rule set cannot express any of these orderings
# ======================================================================
@pytest.mark.parametrize("snippet,relpath", [
    (D1_BAD, PERSIST),
    (D2_BAD, PERSIST),
    (D3_BAD, EXECUTOR),
    (E1_BAD, SERVICE),
    (E2_BAD, EXECUTOR),
    (R1_BAD_EXC, EXECUTOR),
], ids=["D1", "D2", "D3", "E1", "E2", "R1"])
def test_ported_rules_alone_cannot_flag_flow_bugs(snippet, relpath):
    assert lint_source(snippet, relpath, only=PORTED_IDS) == []


# ======================================================================
# regression: the _dispatch segment leak R1 caught in this repo
# ======================================================================
def test_dispatch_releases_segment_when_send_fails(monkeypatch):
    from types import SimpleNamespace

    from repro.service import executor as ex

    created = []
    real_shm_cls = ex.shared_memory.SharedMemory

    def recording_shm(*args, **kwargs):
        seg = real_shm_cls(*args, **kwargs)
        created.append(seg.name)
        return seg

    monkeypatch.setattr(ex.shared_memory, "SharedMemory", recording_shm)
    monkeypatch.setattr(
        ex, "_encode_subops",
        lambda subops: np.array([[1, 2, 3, 4, 5, 6]], dtype=np.int64))

    class ExplodingConn:
        def send(self, msg):
            raise RuntimeError("serialization blew up")

    executor = object.__new__(ex.ProcessExecutor)
    executor._core = SimpleNamespace(service=None)
    executor._pin = {7: ex._WorkerHandle(process=None, conn=ExplodingConn())}
    executor._dirty = set()
    executor._journal = {}

    subop = ex.SubOp(op_index=0, code=0, key=1)
    with pytest.raises(RuntimeError, match="serialization blew up"):
        executor._dispatch([(0, 7, [subop])], {})

    assert len(created) == 1
    # The segment must be gone: re-attaching by name has to fail.  (On
    # the leaking code this attach succeeds and the test cleans up.)
    try:
        leaked = real_shm_cls(name=created[0])
    except FileNotFoundError:
        return
    leaked.close()
    leaked.unlink()
    raise AssertionError("dispatch leaked shared-memory segment")
