"""Protocol-conformance suite: every registered backend, one contract.

Parametrized over the full backend registry (:mod:`repro.api`), these
tests pin the unified Index protocol down:

* scalar/batch **bit-identity** — ``search_many`` / ``delete_many`` /
  ``range_scan_many`` produce exactly the per-item scalar loop's
  results, IOStats and simulated clock, on every backend (vectorized
  engine or generic fallback alike), and one ordered ``apply_many``
  call equals the same ops sent as run-by-run batch calls;
* normalized **return types** — ``SearchResult`` / ``DeleteOutcome`` /
  ``RangeScanResult`` everywhere;
* **capability-gated errors** — operations outside a backend's
  capabilities raise ``UnsupportedOperationError`` naming the missing
  capability, never ``AttributeError``;
* **serving equivalence** — shardable backends replay traffic
  bit-identically sharded vs unsharded; unshardable backends serve as
  a single-shard degenerate case whose batched replay is bit-identical
  to the per-op service loop.
"""

import dataclasses
import math

import numpy as np
import pytest
from golden.read_cases import assert_io_equal
from per_op_replay import replay_per_op

from repro.api import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    Capabilities,
    DeleteOutcome,
    Index,
    RangeScanResult,
    SearchResult,
    UnsupportedOperationError,
    make_index,
    registered_backends,
)
from repro.core import BFTreeConfig
from repro.harness import run_probes, run_service
from repro.service import ShardedIndex
from repro.storage import build_stack
from repro.workloads import generate_trace

BACKENDS = registered_backends()
CONFIG = "MEM/SSD"
FPP = 1e-3

#: The documented capability matrix (also in the README).
EXPECTED_CAPS = {
    "bf": dict(ordered=True, mutable=True, scannable=True, durable=False),
    "bplus": dict(ordered=True, mutable=True, scannable=True, durable=False),
    "fd": dict(ordered=True, mutable=True, scannable=False, durable=False),
    "hash": dict(ordered=False, mutable=True, scannable=False,
                 durable=False),
    "silt": dict(ordered=True, mutable=False, scannable=False,
                 durable=False),
    "binsearch": dict(ordered=True, mutable=False, scannable=False,
                      durable=False),
    "durable": dict(ordered=True, mutable=True, scannable=True,
                    durable=True),
}

MUTABLE = [n for n, c in EXPECTED_CAPS.items() if c["mutable"]]
IMMUTABLE = [n for n, c in EXPECTED_CAPS.items() if not c["mutable"]]
SCANNABLE = [n for n, c in EXPECTED_CAPS.items() if c["scannable"]]
UNSCANNABLE = [n for n, c in EXPECTED_CAPS.items() if not c["scannable"]]
SHARDABLE = ["bf", "bplus"]
UNSHARDABLE = [n for n in BACKENDS if n not in SHARDABLE]


def _build(name, relation, unique=True):
    return make_index(name, relation, "pk", unique=unique, fpp=FPP)


def _probe_keys():
    # Hits spread over the domain plus guaranteed misses.
    return list(range(0, 8192, 257)) + [8192, 10**7, -5]


# ======================================================================
# registry + protocol shape
# ======================================================================
def test_registry_matches_expected_caps_table():
    assert BACKENDS == sorted(EXPECTED_CAPS)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_satisfies_protocol(name, pk_relation):
    index = _build(name, pk_relation)
    assert isinstance(index, Index)
    assert index.backend_name == name


@pytest.mark.parametrize("name", BACKENDS)
def test_capability_descriptor(name, pk_relation):
    caps = _build(name, pk_relation).capabilities()
    assert isinstance(caps, Capabilities)
    expected = EXPECTED_CAPS[name]
    assert caps.ordered == expected["ordered"]
    assert caps.mutable == expected["mutable"]
    assert caps.scannable == expected["scannable"]
    assert caps.durable == expected["durable"]
    assert caps.unique is True


def test_unknown_backend_lists_registry():
    with pytest.raises(ValueError, match="registered backends: "):
        make_index("lsm", None, "pk")


def test_register_collision_errors_at_call_site():
    """Colliding with a builtin errors immediately (the builtins load
    before the collision check), and leaves the registry intact."""
    from repro.api import register

    with pytest.raises(ValueError, match="already registered"):
        register("bf", lambda relation, column, **cfg: None)
    assert registered_backends() == BACKENDS


def test_register_and_make_custom_backend(pk_relation):
    """The advertised extension point: register -> make_index -> serve."""
    from repro.api import register
    from repro.api.registry import _REGISTRY

    def build(relation, column, *, unique=False, config=None, fpp=None):
        return _build("bplus", relation, unique=unique)

    try:
        register("bplus-tuned", build)
        index = make_index("bplus-tuned", pk_relation, "pk", unique=True)
        # The instance reports the name it was built as, even though
        # its class is registered under another name too.
        assert index.backend_name == "bplus-tuned"
        assert make_index("bplus", pk_relation, "pk").backend_name == "bplus"
        assert "bplus-tuned" in registered_backends()
    finally:
        _REGISTRY.pop("bplus-tuned", None)


# ======================================================================
# storage binding
# ======================================================================
@pytest.mark.parametrize("name", BACKENDS)
def test_rebind_moves_every_charge_to_the_new_stack(name, pk_relation):
    """Bound to stack A (warm: trees pool their directory on A), ops
    charge A; rebound to stack B (cold), only B's clock and IOStats
    move; after ``unbind()`` ops charge nothing and the sink gets
    zeros."""
    keys = _probe_keys()
    index = _build(name, pk_relation)
    stack_a, stack_b = build_stack(CONFIG), build_stack(CONFIG)

    index.bind(stack_a, warm=True)
    index.search_many(keys)
    index.search(keys[0])
    a_io, a_clock = stack_a.stats.snapshot(), stack_a.elapsed()
    assert a_clock > 0.0
    assert a_io.total_reads > 0

    index.bind(stack_b)
    sink: list[float] = []
    bound = index.search_many(keys, latency_sink=sink)
    index.search(keys[0])
    assert stack_a.stats.snapshot() == a_io
    assert stack_a.elapsed() == a_clock
    b_io, b_clock = stack_b.stats.snapshot(), stack_b.elapsed()
    assert b_clock > 0.0
    assert b_io.total_reads > 0
    assert sum(sink) > 0.0

    index.unbind()
    sink = []
    assert index.search_many(keys, latency_sink=sink) == bound
    index.search(keys[0])
    assert sink == [0.0] * len(keys)
    assert stack_a.stats.snapshot() == a_io
    assert stack_a.elapsed() == a_clock
    assert stack_b.stats.snapshot() == b_io
    assert stack_b.elapsed() == b_clock


# ======================================================================
# scalar/batch bit-identity
# ======================================================================
@pytest.mark.parametrize("name", BACKENDS)
def test_search_many_bit_identical_to_scalar(name, pk_relation):
    keys = _probe_keys()
    index = _build(name, pk_relation)

    stack_s = build_stack(CONFIG)
    index.bind(stack_s)
    scalar = [index.search(k) for k in keys]
    index.unbind()

    stack_b = build_stack(CONFIG)
    index.bind(stack_b)
    sink: list[float] = []
    batch = index.search_many(keys, latency_sink=sink)
    index.unbind()

    assert batch == scalar
    assert all(isinstance(r, SearchResult) for r in batch)
    assert stack_b.stats.snapshot() == stack_s.stats.snapshot()
    assert math.isclose(stack_b.elapsed(), stack_s.elapsed(),
                        rel_tol=1e-9)
    assert len(sink) == len(keys)
    assert math.isclose(sum(sink), stack_b.elapsed(), rel_tol=1e-9)


@pytest.mark.parametrize("name", BACKENDS)
def test_run_probes_matches_per_probe_loop(name, pk_relation):
    """run_probes replays the whole probe set through search_many; on
    every backend that must equal probing key by key (each probe's
    first data page charged random: the paper's cold per-query O_DIRECT
    behaviour)."""
    keys = np.asarray(list(range(0, 8192, 511)), dtype=np.int64)
    index = _build(name, pk_relation)
    stack = build_stack(CONFIG)
    index.bind(stack)
    hits = 0
    for key in keys.tolist():
        hits += index.search(key).found
    index.unbind()
    stats = run_probes(index, keys, CONFIG)
    assert stats.hits == hits == len(keys)
    assert stats.io == stack.stats.snapshot()
    assert math.isclose(stats.avg_latency * len(keys), stack.elapsed(),
                        rel_tol=1e-9)


@pytest.mark.parametrize("name", MUTABLE)
def test_delete_many_bit_identical_to_scalar(name, pk_relation):
    targets = list(range(100, 140)) + [10**7, 10**7]  # present + missing
    scalar_index = _build(name, pk_relation)
    batch_index = _build(name, pk_relation)
    s_out = [scalar_index.delete(k) for k in targets]
    sink: list[float] = []
    b_out = batch_index.delete_many(targets, latency_sink=sink)
    assert b_out == s_out
    assert all(isinstance(o, DeleteOutcome) for o in b_out)
    assert len(sink) == len(targets)


@pytest.mark.parametrize("name", SCANNABLE)
def test_range_scan_many_bit_identical_to_scalar(name, pk_relation):
    windows = [(0, 100), (4000, 4096), (8000, 9000)]
    index = _build(name, pk_relation)

    stack_s = build_stack(CONFIG)
    index.bind(stack_s)
    scalar = [index.range_scan(lo, hi) for lo, hi in windows]
    index.unbind()

    stack_b = build_stack(CONFIG)
    index.bind(stack_b)
    sink: list[float] = []
    batch = index.range_scan_many(windows, latency_sink=sink)
    index.unbind()

    assert batch == scalar
    assert all(isinstance(r, RangeScanResult) for r in batch)
    assert batch[0].matches == 101
    assert stack_b.stats.snapshot() == stack_s.stats.snapshot()
    assert len(sink) == len(windows)


def _mixed_ops(name, index):
    """Reads (hits and misses), plus scans and inserts where the backend
    supports them, interleaved so every kind starts and ends a run."""
    caps = EXPECTED_CAPS[name]
    ops = [(OP_READ, k, None) for k in (5, 10**7, 300)]
    if caps["scannable"]:
        ops += [(OP_SCAN, 0, 100), (OP_READ, 8191, None),
                (OP_SCAN, 8000, 9000)]
    if caps["mutable"]:
        ops += [(OP_INSERT, 9000, index.write_target(8191)),
                (OP_INSERT, 100, index.write_target(100)),
                (OP_READ, 9000, None), (OP_READ, 100, None),
                (OP_INSERT, 9001, index.write_target(8191))]
    if caps["scannable"]:
        ops += [(OP_SCAN, 50, 150), (OP_SCAN, 8100, 9100)]
    return ops + [(OP_READ, 4000, None)]


def _run_by_run(index, ops, sink):
    """The ops as maximal runs: one insert_many per insert run; per run
    of reads and scans, one search_many then one range_scan_many."""
    results, latencies = [None] * len(ops), [0.0] * len(ops)
    start = 0
    while start < len(ops):
        inserting = ops[start][0] == OP_INSERT
        stop = start
        while stop < len(ops) and (ops[stop][0] == OP_INSERT) == inserting:
            stop += 1
        for code in (OP_INSERT, OP_READ, OP_SCAN):
            idx = [i for i in range(start, stop) if ops[i][0] == code]
            if not idx:
                continue
            part: list[float] = []
            if code == OP_INSERT:
                index.insert_many([ops[i][1] for i in idx],
                                  [ops[i][2] for i in idx],
                                  latency_sink=part)
                got = [None] * len(idx)
            elif code == OP_READ:
                got = index.search_many([ops[i][1] for i in idx],
                                        latency_sink=part)
            else:
                got = index.range_scan_many(
                    [(ops[i][1], ops[i][2]) for i in idx], latency_sink=part
                )
            for i, result, latency in zip(idx, got, part):
                results[i] = result
                latencies[i] = latency
        start = stop
    sink.extend(latencies)
    return results


@pytest.mark.parametrize("name", BACKENDS)
def test_apply_many_equals_run_by_run_batches(name, pk_relation):
    runs_index, index = _build(name, pk_relation), _build(name, pk_relation)
    ops = _mixed_ops(name, index)

    stack_r = build_stack(CONFIG)
    runs_index.bind(stack_r)
    want_lat: list[float] = []
    want = _run_by_run(runs_index, ops, want_lat)
    runs_index.unbind()

    stack = build_stack(CONFIG)
    index.bind(stack)
    sink: list[float] = []
    got = index.apply_many(ops, latency_sink=sink)
    index.unbind()

    assert got == want
    assert stack.stats.snapshot() == stack_r.stats.snapshot()
    assert math.isclose(stack.elapsed(), stack_r.elapsed(),
                        rel_tol=1e-9)
    np.testing.assert_allclose(sink, want_lat, rtol=1e-9)


@pytest.mark.parametrize("name", MUTABLE)
def test_apply_many_read_sees_only_earlier_inserts(name, pk_relation):
    index = _build(name, pk_relation)
    index.delete(4242)
    before, _, after = index.apply_many([
        (OP_READ, 4242, None),
        (OP_INSERT, 4242, index.write_target(4242)),
        (OP_READ, 4242, None),
    ])
    assert not before.found
    assert after.found


@pytest.mark.parametrize("name", BACKENDS)
def test_apply_many_rejects_unknown_op_code(name, pk_relation):
    index = _build(name, pk_relation)
    stack = build_stack(CONFIG)
    index.bind(stack)
    with pytest.raises(ValueError, match="unknown op code 9"):
        index.apply_many([(OP_READ, 5, None), (9, 5, None)])
    assert stack.stats.snapshot() == build_stack(CONFIG).stats.snapshot()


@pytest.mark.parametrize("name", BACKENDS)
def test_apply_many_rejects_bad_scan_before_applying(name, pk_relation):
    """An inverted scan window anywhere in the call raises before the
    insert ahead of it applies: nothing is charged, nothing indexed."""
    index = _build(name, pk_relation)
    stack = build_stack(CONFIG)
    index.bind(stack)
    with pytest.raises(ValueError, match="empty range"):
        index.apply_many([(OP_INSERT, 10**7, index.write_target(8191)),
                          (OP_SCAN, 10, 5)])
    assert stack.stats.snapshot() == build_stack(CONFIG).stats.snapshot()
    assert not index.search(10**7).found


@pytest.mark.parametrize("name", sorted(set(IMMUTABLE) | set(UNSCANNABLE)))
def test_apply_many_checks_capabilities_before_applying(name, pk_relation):
    """An op outside the backend's capabilities raises before any op of
    the call applies (an insert ahead of a scan on an unscannable
    backend, a read ahead of an insert on an immutable one)."""
    caps = EXPECTED_CAPS[name]
    index = _build(name, pk_relation)
    stack = build_stack(CONFIG)
    index.bind(stack)
    if caps["mutable"]:
        ops = [(OP_INSERT, 10**7, index.write_target(8191)),
               (OP_SCAN, 0, 100)]
        missing = "not scannable"
    else:
        ops = [(OP_READ, 5, None), (OP_INSERT, 10**7, 0)]
        missing = "not mutable"
    with pytest.raises(UnsupportedOperationError, match=missing):
        index.apply_many(ops)
    assert stack.stats.snapshot() == build_stack(CONFIG).stats.snapshot()
    assert not index.search(10**7).found


# ======================================================================
# normalized mutation semantics
# ======================================================================
@pytest.mark.parametrize("name", MUTABLE)
def test_delete_returns_delete_outcome(name, pk_relation):
    index = _build(name, pk_relation)
    hit = index.delete(55)
    assert isinstance(hit, DeleteOutcome) and hit
    assert not index.search(55).found
    miss = index.delete(10**9)
    assert isinstance(miss, DeleteOutcome) and not miss


@pytest.mark.parametrize("name", MUTABLE)
def test_insert_roundtrip_via_write_target(name, pk_relation):
    """The backend-agnostic write pattern the service uses."""
    index = _build(name, pk_relation)
    key, tid = 4242, 4242  # pk relation: key k lives at tuple k
    index.insert(key, index.write_target(tid))
    assert index.search(key).found
    assert index.delete(key)
    assert not index.search(key).found


def _build_mutable(name, relation, tmp_path):
    """A registered mutable backend, or ``durable-<kind>``: that backend
    wrapped in a :class:`DurableIndex` logging to ``tmp_path``."""
    if not name.startswith("durable-"):
        return _build(name, relation)
    from repro.persist import DurableIndex

    kind = name.removeprefix("durable-")
    return DurableIndex(_build(kind, relation), tmp_path, kind=kind,
                        column="pk", unique=True, fpp=FPP)


@pytest.mark.parametrize("name", [*MUTABLE, "durable-bplus"])
def test_batch_writes_reject_mismatched_targets(name, pk_relation,
                                                tmp_path):
    """A batch whose targets do not pair one to one with its keys raises
    ``ValueError`` before any item applies, on the generic fallback as
    on the vectorized engine; a durable wrapper logs nothing for it."""
    index = _build_mutable(name, pk_relation, tmp_path)
    wal = getattr(index, "_wal", None)
    logged = wal.nbytes if wal is not None else None
    with pytest.raises(ValueError):
        index.delete_many([1, 2, 3], [None])
    with pytest.raises(ValueError):
        index.insert_many([10**7, 10**7 + 1], [index.write_target(0)])
    assert all(index.search(k).found for k in (1, 2, 3))
    assert not index.search(10**7).found
    if wal is not None:
        assert wal.nbytes == logged


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_backends_gate_writes(name, pk_relation):
    index = _build(name, pk_relation)
    with pytest.raises(UnsupportedOperationError, match="not mutable"):
        index.insert(1, 0)
    with pytest.raises(UnsupportedOperationError, match="not mutable"):
        index.delete(1)
    with pytest.raises(UnsupportedOperationError):
        index.insert_many([1], [0])


@pytest.mark.parametrize("name", UNSCANNABLE)
def test_unscannable_backends_gate_scans(name, pk_relation):
    index = _build(name, pk_relation)
    with pytest.raises(UnsupportedOperationError, match="not scannable"):
        index.range_scan(1, 10)
    with pytest.raises(UnsupportedOperationError):
        index.range_scan_many([(1, 10)])
    # Legacy guard: callers that caught NotImplementedError keep working.
    with pytest.raises(NotImplementedError):
        index.range_scan(1, 10)


def test_unsupported_error_names_backend_and_capability(pk_relation):
    index = _build("silt", pk_relation)
    with pytest.raises(UnsupportedOperationError) as exc_info:
        index.insert(1, 0)
    message = str(exc_info.value)
    assert "silt" in message
    assert "insert" in message
    assert "mutable" in message
    assert "capabilities:" in message


# ======================================================================
# serving equivalence: sharded, degenerate and batched
# ======================================================================
@pytest.mark.parametrize("name", SHARDABLE)
def test_sharded_vs_unsharded_bit_identity(name, pk_relation):
    keys = _probe_keys()
    unsharded = _build(name, pk_relation)
    stack = build_stack(CONFIG)
    unsharded.bind(stack)
    ref = [unsharded.search(k) for k in keys]
    unsharded.unbind()

    service = ShardedIndex.build(pk_relation, "pk", n_shards=4, kind=name,
                                 unique=True, fpp=FPP)
    assert service.n_shards > 1
    service.bind(CONFIG)
    results = [service.search(k) for k in keys]
    merged = service.merged_io()
    service.unbind()
    assert results == ref
    # Shards sum their compares apart: float last bits may differ.
    assert_io_equal(merged, stack.stats, 1e-12)


@pytest.mark.parametrize("name", UNSHARDABLE)
def test_unshardable_backend_serves_single_shard(name, pk_relation):
    service = ShardedIndex.build(pk_relation, "pk", n_shards=4, kind=name,
                                 unique=True, fpp=FPP)
    assert service.n_shards == 1
    service.bind(CONFIG)
    results = [service.search(k) for k in (0, 1000, 10**9)]
    service.unbind()
    assert [r.found for r in results] == [True, True, False]


def _with_deletes(trace, relation, share=0.3, seed=17):
    """``trace`` with a seeded ``share`` of its reads turned into
    deletes: half carry the key's tuple id, half -1 (untargeted)."""
    rng = np.random.default_rng(seed)
    reads = np.flatnonzero(trace.ops == OP_READ)
    chosen = rng.choice(reads, size=int(len(reads) * share), replace=False)
    targeted = chosen[: len(chosen) // 2]
    ops, tids = trace.ops.copy(), trace.tids.copy()
    ops[chosen] = OP_DELETE
    tids[targeted] = np.searchsorted(np.asarray(relation.columns["pk"]),
                                     trace.keys[targeted])
    return dataclasses.replace(trace, ops=ops, tids=tids)


def _delete_trace(relation):
    trace = generate_trace(relation, "pk", mix="read_heavy", n_ops=200,
                           skew="zipfian", seed=9)
    return _with_deletes(trace, relation)


def _assert_router_matches_per_op(routed_service, per_op_service, trace):
    """A Router replay equals the per-op service loop: results, IOStats
    and per-op latencies."""
    batched = run_service(routed_service, trace, CONFIG)
    scalar = replay_per_op(per_op_service, trace, CONFIG)
    assert batched.results == scalar.results
    assert batched.io == scalar.io
    assert np.allclose(batched.stats.op_latencies,
                       scalar.stats.op_latencies, rtol=1e-9)


@pytest.mark.parametrize("name", BACKENDS)
def test_service_trace_batch_fallback_bit_identity(name, pk_relation):
    """The acceptance bar: a mixed-workload trace replays bit-identically
    through the generic batch fallback vs the per-op service loop —
    results, IOStats and per-op latencies — on every backend, and so
    does a delete-bearing trace on every mutable one."""
    caps = EXPECTED_CAPS[name]
    mix = "read_heavy" if caps["mutable"] else "read_only"
    traces = [generate_trace(pk_relation, "pk", mix=mix, n_ops=200,
                             skew="zipfian", seed=9)]
    if caps["mutable"]:
        traces.append(_delete_trace(pk_relation))

    def build():
        return ShardedIndex.build(pk_relation, "pk", n_shards=4,
                                  kind=name, unique=True, fpp=FPP)

    for trace in traces:
        _assert_router_matches_per_op(build(), build(), trace)


def test_delete_trace_on_counting_bf_service(pk_relation):
    """Targeted deletes decrement a counting BF service's counters in
    place through the Router as through the per-op loop."""
    trace = _delete_trace(pk_relation)

    def build():
        return ShardedIndex.build(
            pk_relation, "pk", n_shards=4, kind="bf", unique=True,
            config=BFTreeConfig(fpp=FPP, filter_kind="counting"))

    _assert_router_matches_per_op(build(), build(), trace)


def test_delete_trace_on_durable_bf_service(pk_relation, tmp_path):
    """A durable BF service replays a delete-bearing trace through the
    Router as through the per-op loop, and both recover to the answers
    they gave before."""
    from repro.persist import make_durable_service, recover_service

    trace = _delete_trace(pk_relation)
    dirs = [tmp_path / "routed", tmp_path / "per-op"]
    services = [make_durable_service(pk_relation, "pk", d, n_shards=4,
                                     kind="bf", unique=True, fpp=FPP)
                for d in dirs]
    _assert_router_matches_per_op(*services, trace)

    probes = np.unique(trace.keys).tolist() + [8192, -5]
    live = [[service.search(k) for k in probes] for service in services]
    assert live[0] == live[1]
    for service, directory, want in zip(services, dirs, live):
        for shard in service.shards:
            shard.index.close()
        recovered = recover_service(directory, pk_relation)
        assert [recovered.search(k) for k in probes] == want
        for shard in recovered.shards:
            shard.index.close()


# ======================================================================
# checkpoint state round-trip: snapshot_state -> restore_state
# ======================================================================
@pytest.mark.parametrize("name", BACKENDS)
def test_snapshot_restore_round_trip_bit_identity(name, pk_relation):
    """Every backend's structural state survives the checkpoint hooks.

    A freshly built index restored from a mutated source's
    ``snapshot_state()`` must behave *bit-identically* to the source:
    same search/scan results, same IOStats charges (node ids, chain
    order, filter bits and allocator cursors all survive), same
    structural footprint.  Immutable backends round-trip through the
    rebuild-format fallback.
    """
    source = _build(name, pk_relation)
    caps = source.capabilities()
    if caps.mutable:
        source.delete(55)
        source.delete_many([300, 301, 302])
        source.insert(301, source.write_target(301))  # resurrect one

    fresh = _build(name, pk_relation)
    fresh.restore_state(source.snapshot_state())

    assert fresh.height == source.height
    assert fresh.n_leaves == source.n_leaves
    assert fresh.size_pages == source.size_pages

    keys = _probe_keys() + [55, 300, 301, 302]
    stack_a, stack_b = build_stack(CONFIG), build_stack(CONFIG)
    source.bind(stack_a)
    ref = [source.search(k) for k in keys]
    source.unbind()
    fresh.bind(stack_b)
    got = [fresh.search(k) for k in keys]
    fresh.unbind()
    assert got == ref
    assert stack_b.stats.snapshot() == stack_a.stats.snapshot()

    if caps.scannable:
        windows = [(0, 100), (290, 310), (8000, 9000)]
        assert (fresh.range_scan_many(windows)
                == source.range_scan_many(windows))


@pytest.mark.parametrize("name", BACKENDS)
def test_restore_state_rejects_foreign_format(name, pk_relation):
    index = _build(name, pk_relation)
    with pytest.raises(ValueError, match="format|restore"):
        index.restore_state({"format": "not-a-real-format"})
