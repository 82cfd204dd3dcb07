"""Tree-level tests of the one directory descent.

Every BF-Tree and B+-Tree descent, scalar or batch, reads the routing
table :class:`~repro.core.node.InnerTree` caches.  These tests pin what
one descent charges and in which order, that the batch engines build the
table once until the directory changes, and that the tracer boundaries
the serving benchmark wraps still name real attributes.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from repro.analysis import sanitize
from repro.baselines.bptree import BPlusTree, BPlusTreeConfig
from repro.core import BFTree, BFTreeConfig
from repro.core.node import InnerTree
from repro.storage import build_stack
from repro.storage.config import CPU_KEY_COMPARE

FPP = 1e-3


def _bound(kind, relation, page_size=256):
    """A bound tree over ``relation.pk``; small pages give it three or
    more levels."""
    if kind == "bf":
        config = BFTreeConfig(fpp=FPP, page_size=page_size)
        tree = BFTree.bulk_load(relation, "pk", config, unique=True)
    else:
        config = BPlusTreeConfig(page_size=page_size)
        tree = BPlusTree.bulk_load(relation, "pk", config, unique=True)
    tree.bind(build_stack("MEM/SSD"))
    return tree


class TestDescentCharge:
    @pytest.mark.parametrize("kind", ["bf", "bplus"])
    def test_charges_one_read_per_level(self, pk_relation, kind):
        """A scalar descent reads each internal node on the key's path,
        then pays one binary search per node in CPU, then reads the
        leaf: one index read per level, in that order."""
        tree = _bound(kind, pk_relation)
        assert tree.height >= 3
        leaf_id, path = tree.inner.route(4321)
        device = tree.store.device
        clock, read = tree.stack.elapsed, device.read_page
        spans = []      # (page, clock before the read, clock after it)

        def traced(page, *args, **kwargs):
            start = clock()
            hit = read(page, *args, **kwargs)
            spans.append((page, start, clock()))
            return hit

        device.read_page = traced
        before, t0 = device.stats.index_reads, clock()
        leaf = tree._descend_and_read(4321)
        assert leaf.node_id == leaf_id
        assert len(path) + 1 == tree.height
        assert device.stats.index_reads - before == tree.height
        assert [page for page, _, _ in spans] == path + [leaf_id]
        # Clock time spent between reads: none along the path, then the
        # path's binary searches before the leaf read.
        ends = [t0] + [end for _, _, end in spans]
        gaps = [start - end for (_, start, _), end in zip(spans, ends)]
        assert gaps[:-1] == [0.0] * len(path)
        cpu = len(path) * math.log2(tree.inner.fanout) * CPU_KEY_COMPARE
        assert gaps[-1] == pytest.approx(cpu, rel=1e-9)


class TestTableBuilds:
    """One table build serves every batch call until the directory
    changes; each split, ``load_state`` or ``build`` costs one more."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        # The sanitizer builds a table of its own to compare against.
        monkeypatch.setattr(sanitize, "_ENABLED", False)
        count = [0]
        build = InnerTree._build_table

        def counted(tree):
            count[0] += 1
            return build(tree)

        monkeypatch.setattr(InnerTree, "_build_table", counted)
        return count

    @staticmethod
    def _batches(tree):
        """Every batch engine once; none of them splits a leaf."""
        tree.search_many([5, 77, 4000, 9000])
        tree.apply_many([(0, 12, None), (0, 8191, None)])
        tree.delete_many([33])
        tree.range_scan_many([(100, 140), (7000, 7100)])

    def test_bf_tree(self, pk_relation, builds):
        tree = _bound("bf", pk_relation)
        n_leaves = tree.n_leaves
        self._batches(tree)
        self._batches(tree)
        assert builds[0] == 1
        tree._split_leaf(tree.leaves_in_order()[1])
        assert tree.n_leaves == n_leaves + 1
        self._batches(tree)
        assert builds[0] == 2
        tree.restore_state(tree.snapshot_state())
        self._batches(tree)
        assert builds[0] == 3
        table = tree.inner.routing_table()
        assert builds[0] == 3
        tree.inner.build(table.fences, table.leaf_ids)
        self._batches(tree)
        assert builds[0] == 4
        assert tree.search_many([4000])[0].found

    def test_bplus_tree(self, pk_relation, builds):
        tree = _bound("bplus", pk_relation)
        tree.range_scan_many([(100, 140), (7000, 7100)])
        tree.search(4000)
        tree.delete(77)
        assert builds[0] == 1
        n_leaves = tree.n_leaves
        key = 4000
        while tree.n_leaves == n_leaves:   # duplicates grow one leaf
            tree.insert(key, 0)
        tree.range_scan_many([(100, 140), (7000, 7100)])
        tree.search(4000)
        assert builds[0] == 2


def test_tracer_boundaries_resolve():
    """Each ``perfbench/tracing.py`` boundary is an attribute its owner
    defines itself (the tracer wraps ``owner.__dict__[attr]``)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BOUNDARIES
    for owner, attr, _ in tracing.BOUNDARIES:
        assert callable(vars(owner).get(attr)), (owner, attr)


def _count_engine_calls(monkeypatch, service, trace):
    """Replay ``trace`` through a Router and count the calls of the
    hash kernel, the filter gather and the data fetch."""
    from repro.core import bf_leaf
    from repro.core.bf_leaf import BFLeaf
    from repro.service import Router

    calls = dict.fromkeys(("hash", "filter_test", "data_fetch"), 0)
    real_hash = bf_leaf.bloom_positions_batch
    real_match = BFLeaf._match_matrix
    real_fetch = BFTree._fetch_runs

    def counted_hash(*args, **kwargs):
        calls["hash"] += 1
        return real_hash(*args, **kwargs)

    def counted_match(*args):
        calls["filter_test"] += 1
        return real_match(*args)

    def counted_fetch(self, *args):
        calls["data_fetch"] += 1
        return real_fetch(self, *args)

    monkeypatch.setattr(bf_leaf, "bloom_positions_batch", counted_hash)
    monkeypatch.setattr(BFLeaf, "_match_matrix", counted_match)
    monkeypatch.setattr(BFTree, "_fetch_runs", counted_fetch)
    results, _ = Router(service).replay(trace)
    monkeypatch.undo()
    return calls, results


@pytest.mark.parametrize("durable", [False, True])
def test_one_engine_pass_per_request(monkeypatch, tmp_path, durable):
    """A read-only 128-op request on a 4-shard BF service is one engine
    pass: one hash call, one filter gather and one data fetch for every
    shard's slice together, also when the shards are durable (their
    hook makes one inner pass over every shard's tree)."""
    import numpy as np

    from repro.persist import make_durable_service
    from repro.service import ShardedIndex
    from repro.storage import Relation
    from repro.workloads import generate_trace

    relation = Relation({"pk": np.arange(32768, dtype=np.int64)},
                        tuple_size=256)
    if durable:
        service = make_durable_service(relation, "pk", tmp_path,
                                       n_shards=4, kind="bf", unique=True,
                                       fpp=0.02)
    else:
        service = ShardedIndex.build(relation, "pk", n_shards=4,
                                     kind="bf", unique=True, fpp=0.02)
    service.bind("MEM/SSD")
    trace = generate_trace(relation, "pk", mix="read_only", n_ops=128,
                           skew="uniform", seed=5)
    try:
        assert len(service.shards) == 4
        assert len(set(service.route(trace.keys).tolist())) == 4
        calls, results = _count_engine_calls(monkeypatch, service, trace)
    finally:
        for shard in service.shards:
            if durable:
                shard.index.close()
        service.unbind()
    assert all(r.found for r in results)
    assert calls == dict.fromkeys(("hash", "filter_test", "data_fetch"), 1)
