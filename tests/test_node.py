"""Unit tests for the shared internal-node machinery (InnerTree).

Routing reads one cached table (:meth:`InnerTree.routing_table`).  The
per-level walk it replaced — a rightmost-biased binary search in each
internal node, root to leaf — lives on here as :func:`_walk`, the
reference the property test compares :meth:`InnerTree.route` against.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.node import InnerTree, InternalNode, NodeStore, fanout_for


def _walk(tree, key):
    """Reference descent: ``(leaf id, internal path ids, lower fence,
    upper fence)``, with the fences bounding the leaf's key range
    (None where unbounded).  Each level picks child ``bisect_right(
    node.keys, key)``, so a key equal to a separator routes right."""
    if tree.root_id is None:
        if tree._single_leaf is None:
            raise LookupError("empty tree")
        return tree._single_leaf, [], None, None
    path = []
    lower = upper = None
    node = tree.nodes[tree.root_id]
    while True:
        path.append(node.node_id)
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < node.keys[mid]:
                hi = mid
            else:
                lo = mid + 1
        if lo > 0:
            lower = node.keys[lo - 1]
        if lo < len(node.keys):
            upper = node.keys[lo]
        child = node.children[lo]
        if node.level == 1:
            return child, path, lower, upper
        node = tree.nodes[child]


class TestFanout:
    def test_equation_two_default(self):
        assert fanout_for(8, 8, 4096) == 256

    def test_paper_figure4_fanout(self):
        assert fanout_for(32, 8, 4096) == 102

    def test_too_small_page(self):
        with pytest.raises(ValueError):
            fanout_for(4096, 4096, 4096)


class TestInternalNode:
    def _node(self):
        return InternalNode(node_id=0, keys=[10, 20, 30],
                            children=[100, 101, 102, 103])

    def test_child_routing(self):
        tree = _tree(fanout=4)
        tree.build([10, 20, 30], [100, 101, 102, 103])
        assert tree.route(5)[0] == 100
        assert tree.route(10)[0] == 101    # separator routes right
        assert tree.route(15)[0] == 101
        assert tree.route(30)[0] == 103
        assert tree.route(99)[0] == 103

    def test_child_index(self):
        assert self._node().child_index(102) == 2


def _tree(fanout=4):
    return InnerTree(NodeStore(), fanout=fanout)


class TestBuild:
    def test_single_leaf(self):
        tree = _tree()
        tree.build([], [77])
        assert tree.route(123) == (77, [])
        assert tree.height == 1
        assert tree.n_internal_nodes == 0

    def test_one_level(self):
        tree = _tree(fanout=4)
        tree.build([10, 20], [0, 1, 2])
        assert tree.route(5)[0] == 0
        assert tree.route(10)[0] == 1
        assert tree.route(25)[0] == 2
        assert tree.height == 2

    def test_two_levels(self):
        leaf_ids = list(range(100, 116))
        separators = [i * 10 for i in range(1, 16)]
        tree = _tree(fanout=4)
        tree.build(separators, leaf_ids)
        assert tree.height == 3
        for i, leaf in enumerate(leaf_ids):
            key = i * 10 + 5
            assert tree.route(key)[0] == leaf

    def test_table_leaf_ids_ordered(self):
        leaf_ids = list(range(100, 120))
        separators = list(range(1, 20))
        tree = _tree(fanout=3)
        tree.build(separators, leaf_ids)
        assert tree.routing_table().leaf_ids == leaf_ids

    def test_bad_separator_count(self):
        with pytest.raises(ValueError):
            _tree().build([1, 2, 3], [0, 1])

    def test_descend_empty_tree(self):
        with pytest.raises(LookupError):
            _tree().route(1)
        with pytest.raises(LookupError):
            _tree().route_batch([1])

    def test_no_dangling_single_child(self):
        """Packing never leaves a one-child internal node."""
        tree = _tree(fanout=4)
        leaf_ids = list(range(5))     # 5 = 4 + 1 would dangle
        tree.build([10, 20, 30, 40], leaf_ids)
        for node in tree.nodes.values():
            assert len(node.children) >= 2


class TestSplits:
    def test_degenerate_split_creates_root(self):
        tree = _tree(fanout=4)
        tree.build([], [0])
        tree.split_child(0, separator=50, new_leaf=1)
        assert tree.root_id is not None
        assert tree.route(10)[0] == 0
        assert tree.route(50)[0] == 1

    def test_split_inserts_separator(self):
        tree = _tree(fanout=4)
        tree.build([10, 20], [0, 1, 2])
        tree.split_child(1, separator=15, new_leaf=3)
        assert tree.route(12)[0] == 1
        assert tree.route(16)[0] == 3

    def test_split_replaces_the_old_leaf(self):
        """``left`` takes the split leaf's slot, in a degenerate tree and
        under an internal node alike."""
        tree = _tree(fanout=4)
        tree.build([], [0])
        tree.split_child(0, separator=50, new_leaf=2, left=1)
        tree.split_child(2, separator=70, new_leaf=4, left=3)
        assert tree.routing_table().leaf_ids == [1, 3, 4]
        with pytest.raises(LookupError):
            tree.split_child(0, separator=10, new_leaf=5)

    def test_cascading_splits_keep_routing(self):
        tree = _tree(fanout=4)
        tree.build([], [0])
        # Split leaves repeatedly: leaf i covers keys [i*10, i*10+10).
        next_leaf = 1
        for sep in range(10, 300, 10):
            victim = tree.route(sep - 1)[0]
            tree.split_child(victim, separator=sep, new_leaf=next_leaf)
            next_leaf += 1
        for i in range(30):
            leaf = tree.route(i * 10 + 5)[0]
            assert leaf == i
        for node in tree.nodes.values():
            assert len(node.children) <= 4
            assert len(node.keys) == len(node.children) - 1


class TestRouteAgainstWalk:
    """:meth:`InnerTree.route` and :meth:`InnerTree.route_batch` land
    where the per-level walk does, over bulk builds with duplicate
    separators, the single-leaf tree and ``split_child`` cascades."""

    @staticmethod
    def _assert_routes_like_walk(tree):
        fences = sorted({k for node in tree.nodes.values()
                         for k in node.keys})
        keys = sorted({-1, 100} | {f + d for f in fences for d in (-1, 0, 1)})
        for key in keys:
            leaf, path, _, _ = _walk(tree, key)
            assert tree.route(key) == (leaf, path)
        expected = [_walk(tree, k)[0] for k in keys]
        assert tree.route_batch(keys) == expected
        assert tree.route_batch(np.asarray(keys)) == expected
        halves = [k + 0.5 for k in keys]
        assert tree.route_batch(halves) == [_walk(tree, k)[0]
                                            for k in halves]

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fanout=st.integers(2, 5),
           separators=st.lists(st.integers(0, 60), max_size=40),
           data=st.data())
    def test_route_equals_walk(self, fanout, separators, data):
        tree = _tree(fanout=fanout)
        separators.sort()
        if separators or data.draw(st.booleans(), label="build"):
            tree.build(separators, list(range(len(separators) + 1)))
        else:
            tree.build([], [0])
        self._assert_routes_like_walk(tree)
        next_leaf = len(separators) + 1
        for _ in range(data.draw(st.integers(0, 40), label="splits")):
            victim, _, lower, upper = _walk(
                tree, data.draw(st.integers(-1, 61), label="key"))
            separator = data.draw(st.integers(
                -1 if lower is None else lower,
                61 if upper is None else upper), label="separator")
            if data.draw(st.booleans(), label="replace"):
                left, new_leaf = next_leaf, next_leaf + 1
                next_leaf += 2
            else:
                left, new_leaf = None, next_leaf
                next_leaf += 1
            tree.split_child(victim, separator, new_leaf, left=left)
            self._assert_routes_like_walk(tree)
        for node in tree.nodes.values():
            assert len(node.children) <= max(fanout, 2)


class TestTableCache:
    """The table is built once, then again only after an edit."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        count = [0]
        build = InnerTree._build_table

        def counted(tree):
            count[0] += 1
            return build(tree)

        monkeypatch.setattr(InnerTree, "_build_table", counted)
        return count

    def test_each_mutator_drops_the_table(self, builds):
        tree = _tree(fanout=3)
        with pytest.raises(LookupError):
            tree.route(1)                                 # caches nothing
        tree.build([], [0])
        tree.route(1)
        tree.route_batch([1, 2])
        assert builds[0] == 2
        tree.split_child(0, separator=10, new_leaf=1)     # degenerate
        tree.route(1)
        assert builds[0] == 3
        for leaf, sep in enumerate(range(20, 80, 10), start=1):
            tree.split_child(leaf, separator=sep, new_leaf=leaf + 1)
            tree.route(sep)
            tree.routing_table()
        assert tree.height > 2                            # cascaded
        assert builds[0] == 3 + 6
        tree.load_state(tree.state_dict())
        tree.route(5)
        assert builds[0] == 10
        tree.build([10, 20], [0, 1, 2])
        assert tree.route(25)[0] == 2
        assert builds[0] == 11
        tree.build([], [7])
        assert tree.route(25) == (7, [])
        assert builds[0] == 12
