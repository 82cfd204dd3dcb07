"""``BFTree.apply_across``: one engine pass over many trees' chunks.

A pass hashes every tree's first plan in one call, walks each
tree's ops in order, then tests every tree's queued reads in one filter
gather and scans every read's pages in one kernel call.  Its contract is
the per-tree loop: one ``apply_many`` call per request, in order, on a
twin set of trees must give the same results, tree state, every IOStats
field and every per-op latency, exactly.  The property test drives that
over the shards of a sharded service (plain and counting filters, cold
and warm bindings) with reads, scans, deletes, duplicate re-inserts and
inserts of new keys that split leaves; the other tests pin how requests
are grouped into passes and what a raising request leaves.

``DurableIndex.apply_across`` frames every durable shard's writes into
that shard's WAL and makes one such pass over the inner trees.  Its
tests hold it to the per-shard loop on twin durable services: the same
results, latencies, tree state and IOStats, the same bytes in every
shard directory (WAL, snapshots, manifests) and the same state after
``recover_service`` — on the happy path, when an op raises in one
shard's walk, when one shard's WAL write or fsync fails, and when one
shard crosses ``checkpoint_every`` mid-request.
"""

import errno
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from per_op_replay import apply_per_op

from repro.api import OP_DELETE, OP_INSERT, OP_READ, OP_SCAN, make_index
from repro.api.protocol import apply_grouped, failed_request
from repro.core import BFTree, BFTreeConfig, bf_tree
from repro.core.bloom import page_to_rows
from repro.core.node import InnerTree
from repro.persist import DurableIndex, make_durable_service, recover_service
from repro.persist import durable
from repro.persist.errors import WALFailedError
from repro.persist.wal import replay_wal
from repro.service import ShardedIndex
from repro.storage import Relation

N_KEYS = 4096

#: Filter configurations of the property test's services.
CONFIGS = {
    "plain": BFTreeConfig(fpp=1e-3, page_size=512),
    "counting": BFTreeConfig(fpp=1e-3, page_size=1024,
                             filter_kind="counting"),
}

#: (storage config, warm) bindings.
BINDINGS = {"cold": ("MEM/SSD", False), "warm": ("SSD/SSD", True)}


def _relation(n=N_KEYS, step=2):
    """Keys ``0, step, 2 * step, ...``: the odd keys between them are
    absent, and inserting one adds a new key to its leaf."""
    return Relation({"k": np.arange(0, step * n, step, dtype=np.int64)},
                    tuple_size=256)


RELATION = _relation()


def _service(config, n_shards, relation=RELATION, binding="cold"):
    service = ShardedIndex.build(relation, "k", n_shards=n_shards,
                                 kind="bf", config=config, unique=True)
    storage, warm = BINDINGS[binding]
    service.bind(storage, warm=warm)
    return service


def _fingerprint(tree):
    if isinstance(tree, DurableIndex):
        tree = tree.inner
    out = []
    for leaf in tree.leaves_in_order():
        n = leaf.nfilters
        out.append((
            leaf.min_pid, leaf.min_key, leaf.max_key, leaf.nkeys,
            leaf.pages_covered, sorted(leaf.deleted_keys), list(leaf.counts),
            page_to_rows(leaf.page, n).tobytes(),
            None if leaf.counters is None else leaf.counters[:n].tobytes(),
        ))
    return out


def _state(service):
    """Per shard: tree fingerprint and IOStats."""
    return [(_fingerprint(shard.index), shard.stack.stats.snapshot())
            for shard in service.shards]


def _op(tree, relation, kind, x):
    """An op over ``tree``'s key span, from drawn integer ``x``."""
    values = relation.columns["k"]
    leaves = tree.leaves_in_order()
    lo = int(np.searchsorted(values, leaves[0].min_key))
    hi = int(np.searchsorted(values, leaves[-1].max_key))
    tid = lo + x % (hi - lo + 1)
    key = int(values[tid])
    if kind == "read":
        return (OP_READ, key + x % 2, None)
    if kind == "dup":
        return (OP_INSERT, key, relation.page_of(tid))
    if kind == "new":
        # An absent odd key, indexed on its neighbour's page: a new key
        # for its leaf, so enough of them split it.
        return (OP_INSERT, key + 1, relation.page_of(tid))
    if kind == "del":
        # A present key, or the odd key after it (which a "new" insert
        # may have added on the same page), with or without its page.
        return (OP_DELETE, key + x % 2,
                relation.page_of(tid) if x // 2 % 2 else None)
    last = int(values[min(hi, tid + 1 + x % 40)])
    return (OP_SCAN, key, last)


def _loop(requests):
    """The reference: one ``apply_many`` per request, in order."""
    return [tree.apply_many(ops, latency_sink=sink)
            for tree, ops, sink in requests]


def _check_pass_equals_loop(make, ops_of):
    """Build twin services with ``make()``, apply ``ops_of(trees)`` to
    one through ``apply_across`` and to the other through the per-tree
    loop, and compare results, latencies, tree state and IOStats."""
    one, twin = make(), make()
    requests = [(tree, ops, []) for tree, ops in ops_of(
        [shard.index for shard in one.shards])]
    reference = [(tree, ops, []) for tree, ops in ops_of(
        [shard.index for shard in twin.shards])]
    got = BFTree.apply_across(requests)
    want = _loop(reference)
    assert got == want
    assert [sink for _, _, sink in requests] == \
        [sink for _, _, sink in reference]
    assert _state(one) == _state(twin)
    return one


kinds = st.sampled_from(["read", "read", "read", "dup", "new", "scan",
                         "del"])
chunks = st.lists(st.lists(st.tuples(kinds, st.integers(0, 10**6)),
                           max_size=60),
                  min_size=4, max_size=4)


@given(n_shards=st.integers(1, 4), config=st.sampled_from(sorted(CONFIGS)),
       binding=st.sampled_from(sorted(BINDINGS)), drawn=chunks)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pass_equals_per_tree_loop(n_shards, config, binding, drawn):
    def make():
        return _service(CONFIGS[config], n_shards, binding=binding)

    def ops_of(trees):
        return [(tree, [_op(tree, RELATION, kind, x) for kind, x in ops])
                for tree, ops in zip(trees, drawn)]

    _check_pass_equals_loop(make, ops_of)


def test_splits_in_every_tree():
    """New keys split leaves in every tree mid-chunk, so each tree
    re-plans alone after its first round, while reads queued before and
    after the splits still share the chunk-end filter gather."""
    rng = np.random.default_rng(3)
    draws = [[(("new", "read", "read", "scan", "dup")[j % 5],
               int(rng.integers(0, 10**6))) for j in range(300)]
             for _ in range(4)]

    def ops_of(trees):
        return [(tree, [_op(tree, RELATION, kind, x) for kind, x in ops])
                for tree, ops in zip(trees, draws)]

    before = _service(CONFIGS["plain"], 4)
    one = _check_pass_equals_loop(
        lambda: _service(CONFIGS["plain"], 4), ops_of)
    assert all(a.index.n_leaves > b.index.n_leaves
               for a, b in zip(one.shards, before.shards))


def test_scans_share_the_pass(monkeypatch):
    """A 4-tree pass of reads, duplicate re-inserts and scans routes each
    tree's point keys and scan windows in one ``route_batch`` call,
    normalises each walk's windows once and counts every tree's scan
    matches in one ``_count_scan_jobs`` call; its answers are the
    per-tree loop's."""
    calls = {"route": [], "normalize": 0, "count": 0}
    route, normalize = InnerTree.route_batch, bf_tree.normalize_scan_windows
    count = BFTree._count_scan_jobs

    def counted_route(inner, keys):
        calls["route"].append(inner)
        return route(inner, keys)

    def counted_normalize(windows):
        calls["normalize"] += 1
        return normalize(windows)

    def counted_count(tree, *args):
        calls["count"] += 1
        return count(tree, *args)

    def requests_of(service):
        return [(shard.index,
                 [_op(shard.index, RELATION, kind, 7 * x) for x, kind in
                  enumerate(["read", "dup", "scan", "read", "scan"] * 6)],
                 []) for shard in service.shards]

    one, twin = _service(CONFIGS["plain"], 4), _service(CONFIGS["plain"], 4)
    requests = requests_of(one)
    monkeypatch.setattr(InnerTree, "route_batch", counted_route)
    monkeypatch.setattr(bf_tree, "normalize_scan_windows", counted_normalize)
    monkeypatch.setattr(BFTree, "_count_scan_jobs", counted_count)
    got = BFTree.apply_across(requests)
    monkeypatch.undo()
    trees = [tree for tree, _, _ in requests]
    routed = sorted(map(id, calls["route"]))
    assert routed == sorted(id(tree.inner) for tree in trees)
    assert calls["normalize"] == len(trees)
    assert calls["count"] == 1
    reference = requests_of(twin)
    assert got == _loop(reference)
    assert [s for _, _, s in requests] == [s for _, _, s in reference]
    assert _state(one) == _state(twin)


def test_split_between_two_scans():
    """New keys split a leaf of every tree between two scans of its
    range in one chunk, so the scans after the split start from the
    re-plan's routes; every tree answers as its per-op loop does."""
    def ops_of(tree):
        leaf = tree.leaves_in_order()[1]
        lo, hi = leaf.min_key, leaf.max_key
        # A bulk-loaded leaf may already hold more keys than it splits at.
        need = max(1, leaf.key_capacity - leaf.nkeys + 1)
        ops = []
        for key in range(lo, hi, 2)[:need + 8]:
            page = RELATION.page_of(key // 2)
            ops += [(OP_SCAN, lo, hi), (OP_READ, key, None),
                    (OP_INSERT, key + 1, page), (OP_SCAN, key, hi)]
        return ops + [(OP_SCAN, lo, hi), (OP_SCAN, hi - 4, hi),
                      (OP_READ, hi, None)]

    one, twin = _service(CONFIGS["plain"], 4), _service(CONFIGS["plain"], 4)
    before = [shard.index.n_leaves for shard in one.shards]
    requests = [(shard.index, ops_of(shard.index), [])
                for shard in one.shards]
    got = BFTree.apply_across(requests)
    for (_, ops, sink), results, shard in zip(requests, got, twin.shards):
        want, want_latencies = apply_per_op(shard.index, ops, shard.stack)
        assert results == want
        np.testing.assert_allclose(sink, want_latencies, rtol=1e-9)
    assert _state(one) == _state(twin)
    assert all(shard.index.n_leaves > n
               for shard, n in zip(one.shards, before))


def _record_passes(monkeypatch):
    passes = []
    real = BFTree._apply_pass

    def recorded(walks):
        passes.append([walk.tree for walk in walks])
        return real(walks)

    monkeypatch.setattr(BFTree, "_apply_pass", staticmethod(recorded))
    return passes


@pytest.mark.parametrize("other", ["fpp", "relation"])
def test_unlike_trees_are_grouped_apart(monkeypatch, other):
    """Shards of two services, of two filter geometries or over two
    relations, interleaved: each run of like trees shares a pass, a
    tree of the other service starts a new one, and the answers are the
    per-tree loop's."""
    second = (BFTreeConfig(fpp=0.05, page_size=512) if other == "fpp"
              else CONFIGS["plain"])
    rel_b = RELATION if other == "fpp" else _relation(N_KEYS, 3)

    def make():
        a = _service(CONFIGS["plain"], 2)
        b = _service(second, 2, relation=rel_b)
        return a, b

    def requests_of(a, b):
        out = []
        for service, relation in ((a, RELATION), (a, RELATION),
                                  (b, rel_b)):
            for shard in service.shards:
                tree = shard.index
                ops = [_op(tree, relation, kind, x)
                       for x, kind in enumerate(["read", "scan", "dup",
                                                 "read", "new"] * 8)]
                out.append((tree, ops, []))
        return out

    (a, b), (a2, b2) = make(), make()
    assert a.shards[0].index.geometry.bits_per_bf != \
        b.shards[0].index.geometry.bits_per_bf or other == "relation"
    passes = _record_passes(monkeypatch)
    requests = requests_of(a, b)
    got = BFTree.apply_across(requests)
    monkeypatch.undo()
    reference = requests_of(a2, b2)
    assert got == _loop(reference)
    assert [s for _, _, s in requests] == [s for _, _, s in reference]
    assert _state(a) == _state(a2) and _state(b) == _state(b2)
    trees_a = [shard.index for shard in a.shards]
    trees_b = [shard.index for shard in b.shards]
    # A tree already in a pass starts the next one.
    assert passes == [trees_a, trees_a, trees_b]


def test_raising_request_leaves_the_loop_state():
    """Tree 2's chunk holds an insert whose page precedes its leaf's
    range.  Trees 0 and 1 are answered, tested and fetched; tree 2 is
    left as its own ``apply_many`` leaves it (the ops before the insert
    charged, its duplicates flushed, no fetch); tree 3 is untouched."""

    def requests_of(service):
        out = []
        for t, shard in enumerate(service.shards):
            tree = shard.index
            ops = [_op(tree, RELATION, kind, 7 * x) for x, kind in
                   enumerate(["read", "dup", "read", "scan", "new"] * 6)]
            if t == 2:
                leaf = tree.leaves_in_order()[1]
                ops.insert(12, (OP_INSERT, leaf.min_key, leaf.min_pid - 1))
            out.append((tree, ops, []))
        return out

    one, twin = _service(CONFIGS["plain"], 4), _service(CONFIGS["plain"], 4)
    untouched = _state(one)[3]
    requests = requests_of(one)
    with pytest.raises(ValueError):
        BFTree.apply_across(requests)
    reference = requests_of(twin)
    for tree, ops, sink in reference[:2]:
        tree.apply_many(ops, latency_sink=sink)
    tree, ops, sink = reference[2]
    with pytest.raises(ValueError):
        tree.apply_many(ops, latency_sink=sink)
    assert [s for _, _, s in requests] == [s for _, _, s in reference]
    assert not requests[2][2] and not requests[3][2]
    assert _state(one) == _state(twin)
    assert _state(one)[3] == untouched


def test_invalid_request_applies_nothing():
    """A bad op code or an inverted scan window in any request raises
    before any tree is walked."""
    service = _service(CONFIGS["plain"], 4)
    before = _state(service)
    trees = [shard.index for shard in service.shards]
    reads = [(OP_READ, 10, None), (OP_INSERT, 12, 0)]
    for bad in [(7, 10, None), (OP_SCAN, 20, 10)]:
        with pytest.raises(ValueError):
            BFTree.apply_across([(tree, reads if t < 3 else [bad], [])
                                 for t, tree in enumerate(trees)])
    assert _state(service) == before


def test_hooks_mark_the_raising_request():
    """The default per-request loop, the BF-Tree pass and
    ``apply_grouped`` each mark the exception with the raising
    request's place in their own request list."""
    bplus = [make_index("bplus", RELATION, "k", unique=True)
             for _ in range(2)]
    trees = [shard.index for shard in _service(CONFIGS["plain"], 2).shards]
    leaf = trees[1].leaves_in_order()[1]
    reads = [(OP_READ, 10, None)]
    bad = [(OP_INSERT, leaf.min_key, leaf.min_pid - 1)]
    for hook, requests, at in [
            (type(bplus[0]).apply_across,
             [(bplus[0], reads, []), (bplus[1], [(OP_SCAN, 9, 3)], [])], 1),
            (BFTree.apply_across,
             [(trees[0], reads, []), (trees[1], bad, [])], 1),
            (apply_grouped,
             [(bplus[0], reads, []), (bplus[1], reads, []),
              (trees[0], reads, []), (trees[1], bad, [])], 3)]:
        with pytest.raises(ValueError) as failed:
            hook(requests)
        assert failed_request(failed.value) == at


# ----------------------------------------------------------------------
# durable shards: DurableIndex.apply_across against the per-shard loop


def _durable_service(root, config=CONFIGS["plain"], n_shards=4,
                     binding="cold", checkpoint_every=None):
    service = make_durable_service(
        RELATION, "k", root, n_shards=n_shards, kind="bf", config=config,
        unique=True, checkpoint_every=checkpoint_every)
    storage, warm = BINDINGS[binding]
    service.bind(storage, warm=warm)
    return service


def _files(root):
    """Every file under a durable service's directory, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _acked(root):
    """The intact records of every WAL file under ``root``."""
    return {p.relative_to(root).as_posix(): replay_wal(p)[0]
            for p in sorted(Path(root).rglob("wal-*.log"))}


def _recovered(service, root):
    """Close ``service``, recover its directory, and fingerprint every
    recovered shard's tree."""
    for shard in service.shards:
        shard.index.close()
    recovered = recover_service(root, RELATION)
    try:
        return [_fingerprint(shard.index) for shard in recovered.shards]
    finally:
        for shard in recovered.shards:
            shard.index.close()


def _durable_requests(service, ops_of):
    return [(shard.index, ops, []) for shard, ops in
            zip(service.shards, ops_of([shard.index.inner
                                        for shard in service.shards]))]


def _durable_loop(requests):
    """The reference: one durable ``apply_many`` per request, in order,
    until one raises: ``(results, exception or None)``."""
    results = []
    for index, ops, sink in requests:
        try:
            results.append(index.apply_many(ops, latency_sink=sink))
        except Exception as exc:
            return results, exc
    return results, None


def _check_durable_pass(root, make, ops_of, error=None, disarm=None):
    """Apply ``ops_of`` to a durable service ``make(root / "one")``
    through ``DurableIndex.apply_across`` and to a twin through the
    per-shard loop, and compare results, sinks, tree state, IOStats,
    directory bytes and acked records; then call ``disarm`` (which
    removes injected faults) and compare the recovered trees.
    ``error`` is the exception type a request raises (None: none does);
    returns the pass's exception."""
    one_dir, twin_dir = root / "one", root / "twin"
    one, twin = make(one_dir), make(twin_dir)
    requests = _durable_requests(one, ops_of)
    reference = _durable_requests(twin, ops_of)
    raised = None
    if error is None:
        got = DurableIndex.apply_across(requests)
        assert (got, None) == _durable_loop(reference)
    else:
        with pytest.raises(error) as failed:
            DurableIndex.apply_across(requests)
        raised = failed.value
        assert isinstance(_durable_loop(reference)[1], error)
    assert [s for _, _, s in requests] == [s for _, _, s in reference]
    assert _state(one) == _state(twin)
    assert _files(one_dir) == _files(twin_dir)
    assert _acked(one_dir) == _acked(twin_dir)
    if disarm is not None:
        disarm()
    assert _recovered(one, one_dir) == _recovered(twin, twin_dir)
    return raised


@given(n_shards=st.integers(1, 4), config=st.sampled_from(sorted(CONFIGS)),
       binding=st.sampled_from(sorted(BINDINGS)),
       checkpoint_every=st.sampled_from([None, 9, 40]), drawn=chunks)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_durable_pass_equals_per_shard_loop(tmp_path_factory, n_shards,
                                            config, binding,
                                            checkpoint_every, drawn):
    """Durable shards (small ``checkpoint_every`` values checkpoint
    mid-request): the pass equals the per-shard loop in results, sinks,
    trees, IOStats, WAL, snapshot and manifest bytes and the recovered
    state."""
    def make(root):
        return _durable_service(root, CONFIGS[config], n_shards, binding,
                                checkpoint_every)

    def ops_of(trees):
        return [[_op(tree, RELATION, kind, x) for kind, x in ops]
                for tree, ops in zip(trees, drawn)]

    with tempfile.TemporaryDirectory(
            dir=tmp_path_factory.getbasetemp()) as root:
        _check_durable_pass(Path(root), make, ops_of)


def _mixed_ops(trees):
    """Reads, duplicate re-inserts, scans and new keys on every tree."""
    return [[_op(tree, RELATION, kind, 7 * x) for x, kind in
             enumerate(["read", "dup", "read", "scan", "new", "del"] * 5)]
            for tree in trees]


def test_durable_raising_walk_leaves_the_loop_state(tmp_path):
    """Shard 2's chunk holds an insert whose page precedes its leaf's
    range: shards 0 and 1 stay applied and logged, shard 2's records are
    rolled back and its tree is left as its own ``apply_many`` leaves
    it, shard 3 is neither logged nor applied."""
    def ops_of(trees):
        ops = _mixed_ops(trees)
        leaf = trees[2].leaves_in_order()[1]
        ops[2].insert(12, (OP_INSERT, leaf.min_key, leaf.min_pid - 1))
        return ops

    raised = _check_durable_pass(tmp_path, _durable_service, ops_of,
                                 error=ValueError)
    assert failed_request(raised) == 2
    acked = _acked(tmp_path / "one")
    logged = [bool(records) for _, records in sorted(acked.items())]
    assert logged == [True, True, False, False]


def _fail_first_io(call, fds):
    """Make the first ``os.write`` (``call="write"``: half the frame is
    written, then the next write raises ENOSPC) or ``os.fsync`` (EIO)
    on each of ``fds`` fail; every later call goes through."""
    real = {"write": os.write, "fsync": os.fsync}[call]
    seen: dict[int, int] = {}

    def write(fd, data):
        if fd in fds:
            seen[fd] = seen.get(fd, 0) + 1
            if seen[fd] == 1:
                return real(fd, bytes(data[: len(data) // 2]))
            if seen[fd] == 2:
                raise OSError(errno.ENOSPC, "injected disk full")
        return real(fd, data)

    def fsync(fd):
        if fd in fds:
            seen[fd] = seen.get(fd, 0) + 1
            if seen[fd] == 1:
                raise OSError(errno.EIO, "injected fsync failure")
        return real(fd)

    return write if call == "write" else fsync


@pytest.mark.parametrize("call", ["write", "fsync"])
def test_durable_wal_error_leaves_the_loop_state(tmp_path, monkeypatch,
                                                 call):
    """Shard 2's first WAL write or fsync fails: shards 0 and 1 are
    applied and logged, shard 2's frame is cut back out and its log is
    poisoned, shard 3 is neither logged nor applied."""
    fds = set()

    def armed(root):
        service = _durable_service(root)
        fds.add(service.shards[2].index._wal._file.fileno())
        return service

    monkeypatch.setattr(os, call, _fail_first_io(call, fds))
    raised = _check_durable_pass(tmp_path, armed, _mixed_ops,
                                 error=OSError, disarm=monkeypatch.undo)
    assert failed_request(raised) == 2
    acked = _acked(tmp_path / "one")
    logged = [bool(records) for _, records in sorted(acked.items())]
    assert logged == [True, True, False, False]


def test_durable_poisoned_log_refuses_the_next_request(tmp_path,
                                                       monkeypatch):
    """After shard 2's fsync failed, a request that writes to it raises
    WALFailedError before any shard is logged or applied."""
    service = _durable_service(tmp_path)
    fds = {service.shards[2].index._wal._file.fileno()}
    monkeypatch.setattr(os, "fsync", _fail_first_io("fsync", fds))
    requests = _durable_requests(service, _mixed_ops)
    with pytest.raises(OSError):
        DurableIndex.apply_across(requests)
    monkeypatch.undo()
    before = (_state(service), _files(tmp_path))
    with pytest.raises(WALFailedError):
        DurableIndex.apply_across(_durable_requests(service, _mixed_ops))
    assert (_state(service), _files(tmp_path)) == before


@pytest.mark.parametrize("fails", [False, True])
def test_durable_checkpoint_mid_request(tmp_path, monkeypatch, fails):
    """Shard 1's writes cross ``checkpoint_every`` mid-request: it
    checkpoints before shard 2 is logged, as in the loop, so the pass is
    cut after it.  When that checkpoint raises, shards 2 and 3 are
    neither logged nor applied."""
    def ops_of(trees):
        return [[_op(tree, RELATION, "dup", 11 * x) for x in range(n)]
                + [_op(tree, RELATION, "read", x) for x in range(6)]
                for tree, n in zip(trees, (4, 12, 4, 4))]

    def make(root):
        return _durable_service(root, checkpoint_every=10)

    if fails:
        real = durable.write_snapshot

        def write_snapshot(path, state):
            if "shard-001" in str(path) and "00000002" in Path(path).name:
                raise OSError(errno.ENOSPC, "injected snapshot failure")
            return real(path, state)

        monkeypatch.setattr(durable, "write_snapshot", write_snapshot)
    passes = _record_passes(monkeypatch)
    raised = _check_durable_pass(tmp_path, make, ops_of,
                                 error=OSError if fails else None,
                                 disarm=monkeypatch.undo)
    # The pass is cut after shard 1: two engine passes of two trees
    # (one when the checkpoint raises), then the loop's one-tree passes.
    assert [len(trees) for trees in passes[:2]] == [2, 1 if fails else 2]
    if fails:
        assert failed_request(raised) == 1
