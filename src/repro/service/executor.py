"""Pluggable shard-execution layer: serial and process workers.

The Router plans a trace into per-shard sub-op lists; *how* those lists
get executed is this module's job.  A :class:`ShardExecutor` receives
``(stable shard id, sub-ops)`` plans and returns per-op outcome records;
two implementations cover the useful points of the design space:

``SerialExecutor``
    Replays shards one after another on the calling thread.  The
    reference semantics — the process executor must be bit-identical
    to it (results, IOStats, per-op simulated latencies).

``ProcessExecutor``
    Pins each shard to a long-lived **worker process** (forked from the
    bound parent, so every worker starts from a bit-identical image of
    the service).  Key/op batches are shipped as numpy ``int64`` arrays
    through ``multiprocessing.shared_memory``; workers replay them with
    the *same* :class:`ReplayCore` code the serial path runs and send
    back per-op outcome records plus serialized IOStats/clock deltas,
    which the parent folds into the owning shard's live counters.  The
    merged numbers are therefore continuous with the serial path —
    ``ServiceStats``, ``merged_io()`` and the rebalancer's load windows
    all keep working unchanged.

**Parent/worker state discipline (ProcessExecutor).**  The parent does
not mutate shard state while a worker owns the shard; it only merges
counter deltas.  Acknowledged batches are journalled per shard.  At a
*sync point* — topology-epoch change, a drain hook firing, ``close()``,
or a worker death — the parent replays the journal through the same
ReplayCore with **charges suspended** (stats and clock snapshotted and
restored around the replay, WAL appends suppressed for durable shards:
the worker already wrote the authoritative frames through the inherited
file description), which reconstructs the exact in-memory state the
worker reached, including buffer-pool residency.  Workers are then
respawned from the fresh image under the new epoch — this is how live
``split_shard``/``merge_shards`` keep working: the affected workers are
torn down at the drain, the split happens in the parent, and the next
replay forks new workers.

**Graceful degradation.**  A worker that dies mid-batch produces a
precise :class:`ExecutorError` naming the shard id and the trace op
offset of the first orphaned sub-op (collected in
:attr:`ProcessExecutor.failures`).  The parent rebuilds the dead
worker's shards from the journal, then replays the orphaned batches
serially **for real** (charges and WAL included) so no submitted op is
lost; runs that survived a crash are correct but not guaranteed
bit-identical to an undisturbed run.

reprolint rule X1 (``executor-confinement``) confines
``concurrent.futures``/``multiprocessing`` imports to this module so
parallel execution stays behind this equivalence-tested seam.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from repro.analysis import sanitize
from repro.api.protocol import OP_INSERT, OP_SCAN, Index, Op
from repro.service.sharded import ShardedIndex
from repro.service.stats import ShardDelta

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import ForkContext
    from multiprocessing.process import BaseProcess


@dataclass(frozen=True)
class SubOp:
    """One shard-local unit of work derived from a trace operation."""

    op_index: int
    code: int
    key: Any
    tid: int = -1
    sub_lo: Any = None
    sub_hi: Any = None


#: One per-op outcome record: (op_index, code, simulated latency, result).
OutRecord = tuple[int, int, float, Any]
#: One planned shard batch: (stable shard id, sub-ops in trace order).
ShardPlan = tuple[int, "list[SubOp]"]
#: Sub-ops per ``apply_many`` call.
REPLAY_CHUNK = 512


class ReplayCore:
    """The per-shard replay engine shared by every executor.

    Turns one shard's sub-op list into one ordered ``apply_many`` call
    per :data:`REPLAY_CHUNK` slice: reads, scans and inserts keep their
    per-shard trace order inside the engine (an op issued after an
    insert observes it, and vice versa), so nothing is buffered between
    calls.  The *same* instance runs in the parent for the serial
    executor and (via fork) inside each worker process, which is what
    makes the executors bit-identical.
    """

    def __init__(self, service: ShardedIndex) -> None:
        self.service = service

    def replay_shard(self, sid: int, subops: list[SubOp]) -> list[OutRecord]:
        """Run one shard's sub-ops in order; return (op_index, code,
        latency, result) records (executor-confined, merged by the
        Router's replay).  An unknown op code raises ``ValueError``."""
        service = self.service
        out: list[OutRecord] = []
        for start in range(0, len(subops), REPLAY_CHUNK):
            chunk = subops[start : start + REPLAY_CHUNK]
            shard = service.shard_by_id(sid)
            # A shard retired mid-replay has no owner any more: the
            # service-level call re-routes each op by key (and re-plans
            # each scan leg's sub-window, which still partitions the
            # original window) under the current epoch.  It takes tuple
            # ids; a shard's index takes its native write targets.
            target: ShardedIndex | Index = (
                service if shard is None else shard.index
            )
            ops: list[Op] = []
            inserts = False
            for op in chunk:
                if op.code == OP_INSERT:
                    inserts = True
                    tid = (op.tid if shard is None
                           else shard.index.write_target(op.tid))
                    ops.append((op.code, op.key, tid))
                elif op.code == OP_SCAN:
                    ops.append((op.code, op.sub_lo, op.sub_hi))
                else:
                    ops.append((op.code, op.key, None))
            sink: list[float] = []
            results = target.apply_many(ops, latency_sink=sink)
            for op, latency, result in zip(chunk, sink, results):
                out.append((op.op_index, op.code, latency, result))
            if inserts:
                sanitize.maybe_check(service)
        return out


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
class ExecutorError(RuntimeError):
    """A worker died before acknowledging a shard batch.

    Names the stable ``shard_id`` and the trace ``op_offset`` (the
    op_index of the first orphaned sub-op).  The ProcessExecutor
    recovers by replaying the orphaned batches serially in the parent,
    so the errors are collected in :attr:`ProcessExecutor.failures`
    rather than raised — no submitted op is lost.
    """

    def __init__(self, shard_id: int, op_offset: int, reason: str) -> None:
        super().__init__(
            f"worker for shard {shard_id} died before acknowledging the "
            f"batch starting at trace op {op_offset} ({reason}); "
            "orphaned ops replayed serially in the parent"
        )
        self.shard_id = shard_id
        self.op_offset = op_offset


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class ShardExecutor:
    """Protocol for "how a planned shard batch gets executed".

    Lifecycle: the Router builds a :class:`ReplayCore`, calls
    :meth:`attach`, then :meth:`run` once per replay with the full list
    of per-shard plans; :meth:`close` releases executor resources.
    Implementations must be bit-identical to :class:`SerialExecutor` in
    results, IOStats and per-op latencies.
    """

    name = "base"

    def __init__(self) -> None:
        self._core: ReplayCore | None = None

    def attach(self, core: ReplayCore) -> None:
        """Bind the replay engine this executor dispatches through."""
        self._core = core

    def _require_core(self) -> ReplayCore:
        if self._core is None:
            raise RuntimeError("executor is not attached to a ReplayCore")
        return self._core

    def run(self, plans: list[ShardPlan]) -> list[list[OutRecord]]:
        """Execute every plan; return outcome lists aligned with ``plans``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""


class SerialExecutor(ShardExecutor):
    """Replay shards one after another on the calling thread."""

    name = "serial"

    def run(self, plans: list[ShardPlan]) -> list[list[OutRecord]]:
        core = self._require_core()
        return [core.replay_shard(sid, subops) for sid, subops in plans]


# ----------------------------------------------------------------------
# process executor: shared-memory transport
# ----------------------------------------------------------------------
_INT64_MIN = int(np.iinfo(np.int64).min)
_SUBOP_COLS = 6


def _encode_subops(subops: list[SubOp]) -> Any:
    """Pack sub-ops into an int64 (n, 6) array, or None if any field is
    not integral (those batches fall back to the pickle pipe).  The
    sentinel for absent scan bounds is int64 min — routable keys are
    leaf keys and never reach it."""
    rows: list[tuple[int, int, int, int, int, int]] = []
    try:
        for op in subops:
            if not isinstance(op.key, (int, np.integer)):
                return None
            if not (op.sub_lo is None or isinstance(op.sub_lo, (int, np.integer))):
                return None
            if not (op.sub_hi is None or isinstance(op.sub_hi, (int, np.integer))):
                return None
            rows.append((
                op.op_index,
                op.code,
                int(op.key),
                int(op.tid),
                _INT64_MIN if op.sub_lo is None else int(op.sub_lo),
                _INT64_MIN if op.sub_hi is None else int(op.sub_hi),
            ))
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), _SUBOP_COLS)
    except OverflowError:
        return None


def _decode_subops(arr: Any) -> list[SubOp]:
    out: list[SubOp] = []
    for row in arr.tolist():
        op_index, code, key, tid, sub_lo, sub_hi = row
        out.append(SubOp(
            op_index=op_index,
            code=code,
            key=key,
            tid=tid,
            sub_lo=None if sub_lo == _INT64_MIN else sub_lo,
            sub_hi=None if sub_hi == _INT64_MIN else sub_hi,
        ))
    return out


def _attach_and_read_shm(name: str, nrows: int) -> list[SubOp]:
    """Worker side: copy the batch out of the parent's shared segment.

    Python 3.11's SharedMemory has no ``track=`` parameter, so the
    attach here registers the segment with the resource tracker again.
    That is harmless *because* :meth:`ProcessExecutor._spawn` starts
    the parent's tracker before forking: every worker inherits it, the
    tracker's registry is a set (the re-register is a no-op), and the
    parent's ``unlink()`` retires the single entry.  Workers must not
    unregister — they would strip the parent's registration.
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        arr = np.ndarray((nrows, _SUBOP_COLS), dtype=np.int64,
                         buffer=shm.buf).copy()
    finally:
        shm.close()
    return _decode_subops(arr)


def _sync_durable(service: ShardedIndex) -> None:
    """Flush every durable shard's WAL buffer to the OS.

    Called in the parent immediately before each fork (so workers do
    not inherit buffered, unwritten frames and write them twice) and in
    each worker before it exits (so the frames it appended through the
    inherited file description are on disk before the parent resumes
    ownership)."""
    from repro.persist.durable import DurableIndex

    for shard in service.shards:
        if isinstance(shard.index, DurableIndex):
            shard.index.sync()


def _sync_index(index: Index) -> None:
    """Flush one shard's WAL if it is durable (no-op otherwise)."""
    from repro.persist.durable import DurableIndex

    if isinstance(index, DurableIndex):
        index.sync()


@contextmanager
def _quiet_wal(index: Index) -> Iterator[None]:
    """Suppress WAL appends around a state-reconstruction replay: the
    owning worker already wrote the authoritative frames."""
    from repro.persist.durable import DurableIndex

    if isinstance(index, DurableIndex):
        with index.suspended_logging():
            yield
    else:
        yield


# ----------------------------------------------------------------------
# process executor: worker loop
# ----------------------------------------------------------------------
def _worker_main(core: ReplayCore, conn: "Connection[Any, Any]",
                 forced: bool | None) -> None:
    """Long-lived worker loop: replay shard batches until told to stop.

    Runs against the forked (bit-identical) image of the bound service.
    The sanitizer setting is re-applied explicitly so ``REPRO_SANITIZE``
    / ``sanitize.force`` propagate even under start methods that do not
    inherit module state."""
    sanitize.force(forced)
    service = core.service
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            try:
                _sync_durable(service)
                conn.send(("bye",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
            return
        _, sid, shm_name, nrows, payload = msg
        try:
            if shm_name is not None:
                subops = _attach_and_read_shm(shm_name, nrows)
            else:
                subops = payload
            shard = service.shard_by_id(sid)
            if shard is None or shard.stack is None:
                raise RuntimeError(f"worker holds no bound shard {sid}")
            io0 = shard.stack.stats.snapshot()
            clock0 = shard.stack.clock.now()
            out = core.replay_shard(sid, subops)
            delta = ShardDelta(
                io=shard.stack.stats.diff(io0),
                clock=shard.stack.clock.now() - clock0,
            )
            # Acknowledging a batch promises its WAL frames are durable:
            # the parent's state-reconstruction replay deliberately does
            # not rewrite them, so they must survive even a later kill.
            _sync_index(shard.index)
        except BaseException as exc:  # noqa: BLE001 — forwarded verbatim
            # The worker's shard copies may be partially mutated; stop
            # consuming batches so no further state (or WAL frames) can
            # diverge from what the parent will reconstruct.
            try:
                conn.send(("err", exc))
            except Exception:
                try:
                    conn.send(("err", RuntimeError(repr(exc))))
                except Exception:
                    pass
            conn.close()
            return
        conn.send(("ok", out, delta.to_wire()))


@dataclass
class _WorkerHandle:
    process: "BaseProcess"
    conn: "Connection[Any, Any]"
    pinned: list[int] = field(default_factory=list)


#: One dispatched-but-unacknowledged batch:
#: (plan position, shard id, sub-ops, shared segment or None).
_Inflight = tuple[int, int, "list[SubOp]", "shared_memory.SharedMemory | None"]


class ProcessExecutor(ShardExecutor):
    """Pin shards to long-lived forked worker processes.

    ``workers=None`` forks one worker per active shard; ``workers=N``
    caps the pool and round-robins shards across it (batches for shards
    sharing a worker serialize there).  POSIX-only: workers must fork
    so they inherit the bound service image bit-identically.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for one per shard)")
        self.workers = workers
        #: ExecutorErrors from worker deaths, in occurrence order.
        self.failures: list[ExecutorError] = []
        try:
            self._ctx: "ForkContext" = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover — non-POSIX
            raise RuntimeError(
                "ProcessExecutor requires the fork start method (POSIX only)"
            ) from exc
        self._handles: list[_WorkerHandle] = []
        self._pin: dict[int, _WorkerHandle] = {}
        #: Acknowledged batches since the last sync point, per shard id.
        self._journal: dict[int, list[list[SubOp]]] = {}
        #: Shard ids whose parent-visible state lags a worker's.
        self._dirty: set[int] = set()
        self._epoch: int | None = None

    # ------------------------------------------------------------------
    def run(self, plans: list[ShardPlan]) -> list[list[OutRecord]]:
        core = self._require_core()
        service = core.service
        if self._epoch is not None and service.topology_epoch != self._epoch:
            # Topology changed between replays without a drain reaching
            # us (defensive; drains normally get here first).
            self._sync_and_stop_all()
        self._epoch = service.topology_epoch
        active = [(pos, sid, subops)
                  for pos, (sid, subops) in enumerate(plans) if subops]
        outcomes: dict[int, list[OutRecord]] = {}
        if active:
            self._ensure_pins([sid for _, sid, _ in active])
            self._dispatch(active, outcomes)
        return [outcomes.get(pos, []) for pos in range(len(plans))]

    def attach(self, core: ReplayCore) -> None:
        super().attach(core)
        core.service.register_drain_hook(self.drain)

    def drain(self, sid: int) -> None:
        """Service drain hook: a topology change is about to retire
        shard ``sid`` — fold every worker's state back into the parent
        (the change happens there) and stop the workers; the next
        replay forks fresh ones under the new epoch."""
        if self._handles or self._journal:
            self._sync_and_stop_all()

    def close(self) -> None:
        if self._core is not None:
            self._core.service.unregister_drain_hook(self.drain)
        if self._handles or self._journal:
            self._sync_and_stop_all()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        active: list[tuple[int, int, list[SubOp]]],
        outcomes: dict[int, list[OutRecord]],
    ) -> None:
        core = self._require_core()
        service = core.service
        # Send every batch first (per-worker pipes are independent, so
        # sends never wait on another worker's unread results), then
        # collect per worker in send order.
        queues: dict[int, list[_Inflight]] = {}
        order: list[_WorkerHandle] = []
        for pos, sid, subops in active:
            handle = self._pin[sid]
            if id(handle) not in queues:
                queues[id(handle)] = []
                order.append(handle)
            arr = _encode_subops(subops)
            shm: shared_memory.SharedMemory | None = None
            if arr is not None:
                shm = shared_memory.SharedMemory(create=True,
                                                 size=max(1, int(arr.nbytes)))
                try:
                    view = np.ndarray(arr.shape, dtype=np.int64,
                                      buffer=shm.buf)
                    view[:] = arr
                    handle.conn.send(("exec", sid, shm.name, len(subops),
                                      None))
                except (BrokenPipeError, OSError):
                    pass  # recv below observes the death and recovers
                except BaseException:
                    # Nobody owns the segment yet: release it before the
                    # error propagates or it outlives the dispatch.
                    shm.close()
                    shm.unlink()
                    raise
            else:
                # Non-integral keys: ship the sub-ops over the pipe.
                try:
                    handle.conn.send(("exec", sid, None, 0, subops))
                except (BrokenPipeError, OSError):
                    pass  # recv below observes the death and recovers
            queues[id(handle)].append((pos, sid, subops, shm))
            self._dirty.add(sid)
        pending_error: BaseException | None = None
        for handle in order:
            entries = queues[id(handle)]
            for i, (pos, sid, subops, shm) in enumerate(entries):
                try:
                    reply = handle.conn.recv()
                except (EOFError, OSError) as exc:
                    self._recover_dead(handle, entries[i:], outcomes,
                                       repr(exc))
                    break
                if shm is not None:
                    shm.close()
                    shm.unlink()
                if reply[0] == "ok":
                    _, out, delta_wire = reply
                    shard = service.shard_by_id(sid)
                    assert shard is not None and shard.stack is not None
                    ShardDelta.from_wire(delta_wire).apply(shard.stack)
                    self._journal.setdefault(sid, []).append(subops)
                    outcomes[pos] = out
                else:
                    # Deterministic failure inside the worker replay
                    # (serial mode would raise the same exception).  The
                    # worker's copy may be partially mutated and the
                    # failed batch is not journalled: stop the worker,
                    # restore the parent to the last acknowledged state,
                    # re-raise after the other workers are collected.
                    if pending_error is None:
                        pending_error = reply[1]
                    self._release_entries(entries[i + 1:])
                    self._poison(handle)
                    break
        if pending_error is not None:
            raise pending_error

    def _ensure_pins(self, sids: Sequence[int]) -> None:
        need = [sid for sid in dict.fromkeys(sids) if sid not in self._pin]
        if not need:
            return
        if self._dirty.intersection(need):
            # A needed shard has post-fork history that no live worker
            # image contains (its worker died) — resync the parent and
            # rebuild the pool from a clean fork point.
            self._sync_and_stop_all()
            need = list(dict.fromkeys(sids))
        if not self._handles:
            n_workers = (len(need) if self.workers is None
                         else min(self.workers, len(need)))
            self._spawn(n_workers)
        for sid in need:
            handle = min(self._handles, key=lambda h: len(h.pinned))
            handle.pinned.append(sid)
            self._pin[sid] = handle

    def _spawn(self, n_workers: int) -> None:
        core = self._require_core()
        _sync_durable(core.service)
        # Start the resource tracker *before* forking so every worker
        # inherits it: shared segments then live in one registry and
        # worker-side attaches cannot spawn per-child trackers that
        # would unlink the parent's segments at worker exit.
        resource_tracker.ensure_running()
        forced = sanitize.forced()
        for _ in range(max(1, n_workers)):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(core, child_conn, forced),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._handles.append(
                _WorkerHandle(process=proc, conn=parent_conn)
            )

    # ------------------------------------------------------------------
    # sync points and recovery
    # ------------------------------------------------------------------
    def _sync_and_stop_all(self) -> None:
        """Stop every worker, then reconstruct their shards' state in
        the parent by replaying the journal with charges suspended (the
        deltas are already merged; the workers' WAL frames are already
        the authoritative durable record)."""
        for handle in self._handles:
            self._stop_handle(handle)
        self._handles.clear()
        self._pin.clear()
        for sid in list(self._journal):
            self._replay_journal_quietly(sid)
        self._journal.clear()
        self._dirty.clear()

    def _replay_journal_quietly(self, sid: int) -> None:
        core = self._require_core()
        service = core.service
        shard = service.shard_by_id(sid)
        batches = self._journal.get(sid)
        if shard is None or not batches:
            return
        with service.suspended_charges(sid):
            with _quiet_wal(shard.index):
                for batch in batches:
                    core.replay_shard(sid, batch)
        self._journal[sid] = []

    def _recover_dead(
        self,
        handle: _WorkerHandle,
        remaining: list[_Inflight],
        outcomes: dict[int, list[OutRecord]],
        reason: str,
    ) -> None:
        """A worker died mid-batch.  Record a precise ExecutorError,
        rebuild its shards from the journal, then replay the orphaned
        batches serially *for real* (these ops were submitted but never
        acknowledged, so their charges and WAL records happen now)."""
        core = self._require_core()
        self._release_entries(remaining)
        pos0, sid0, subops0, _ = remaining[0]
        self.failures.append(
            ExecutorError(sid0, subops0[0].op_index, reason)
        )
        self._poison(handle)
        for pos, sid, subops, _ in remaining:
            outcomes[pos] = core.replay_shard(sid, subops)
        # The sids stay dirty: other live workers' images of them are
        # now stale, so the next pin request forces a full resync.
        for pos, sid, subops, _ in remaining:
            self._dirty.add(sid)

    def _poison(self, handle: _WorkerHandle) -> None:
        """Tear down one worker hard and restore its shards in the
        parent (journal replay with charges suspended)."""
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        for sid in handle.pinned:
            self._replay_journal_quietly(sid)
            self._pin.pop(sid, None)
            self._journal.pop(sid, None)
        if handle in self._handles:
            self._handles.remove(handle)

    def _stop_handle(self, handle: _WorkerHandle) -> None:
        """Ask one worker to flush durable state and exit."""
        try:
            handle.conn.send(("stop",))
            handle.conn.recv()  # "bye" after the worker's WAL sync
        except (BrokenPipeError, EOFError, OSError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():  # pragma: no cover — stuck worker
            handle.process.terminate()
            handle.process.join(timeout=5.0)

    @staticmethod
    def _release_entries(entries: list[_Inflight]) -> None:
        """Free shared segments for batches a worker never consumed."""
        for _, _, _, shm in entries:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass


# ----------------------------------------------------------------------
def make_executor(
    spec: "str | ShardExecutor | None" = None,
    *,
    workers: int | None = None,
) -> ShardExecutor:
    """Resolve an executor spec (the ``--executor`` flag, a Router knob,
    or an already-built instance); ``None`` means serial."""
    if isinstance(spec, ShardExecutor):
        return spec
    if spec is None or spec == "serial":
        return SerialExecutor()
    if spec == "process":
        return ProcessExecutor(workers)
    raise ValueError(f"unknown executor {spec!r}; choose serial or process")
