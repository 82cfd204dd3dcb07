"""Shared tree machinery: node storage and B+-Tree-style internal levels.

The paper keeps the root and internal nodes of a BF-Tree identical to a
B+-Tree's ("the code-base of the B+-Tree with minor modifications serves
as the part of the BF-Tree above the leaves").  We mirror that: both our
BF-Tree and our baseline B+-Tree place their upper levels in the classes
here.

* :class:`NodeStore` maps node ids 1:1 to index pages and charges the
  index device on every node access.  Warm-cache binding reads through
  a :class:`BufferPool` holding the internal nodes as its resident set,
  so only leaf reads cost I/O.
* :class:`InternalNode` is a <key, child-pointer> page with the fanout of
  Equation 2 (``pagesize / (ptrsize + keysize)``).
* :class:`InnerTree` owns the internal levels: bulk build over leaf
  separators, separator insertion with node splits, the one routing
  table (:class:`RoutingTable`) every descent reads, and the directory's
  storage binding (:meth:`InnerTree.bind`, the paper's warm-cache rule).
  It is the only code that edits an :class:`InternalNode`, so it knows
  when its cached table goes stale.
* :func:`link_chain` and :func:`ordered_chain` keep and walk the leaf
  level's doubly linked chain for both trees.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.storage.buffer_pool import BufferPool
from repro.storage.device import PAGE_SIZE, Device

DEFAULT_KEY_SIZE = 8
DEFAULT_PTR_SIZE = 8


def fanout_for(key_size: int = DEFAULT_KEY_SIZE, ptr_size: int = DEFAULT_PTR_SIZE,
               page_size: int = PAGE_SIZE) -> int:
    """Equation 2: internal-node fanout = pagesize / (ptrsize + keysize)."""
    fanout = page_size // (ptr_size + key_size)
    if fanout < 2:
        raise ValueError("page too small for a fanout of 2")
    return fanout


def link_chain(leaves: Sequence[Any]) -> list[int]:
    """Relink ``leaves`` into one doubly linked chain in list order, cut
    it at both ends, and return the leaves' node ids in that order."""
    for prev, nxt in zip(leaves, leaves[1:]):
        prev.next_leaf_id = nxt.node_id
        nxt.prev_leaf_id = prev.node_id
    if leaves:
        leaves[0].prev_leaf_id = None
        leaves[-1].next_leaf_id = None
    return [leaf.node_id for leaf in leaves]


def ordered_chain(leaves: dict[int, Any],
                  head_key: Callable[[Any], Any]) -> list[Any]:
    """Leaves left to right following next pointers, from the head
    (a leaf no next pointer names) with the smallest ``head_key``."""
    targets = {l.next_leaf_id for l in leaves.values()
               if l.next_leaf_id is not None}
    heads = [l for lid, l in leaves.items() if lid not in targets]
    if not heads:
        return []
    chain = [min(heads, key=head_key)]
    while chain[-1].next_leaf_id is not None:
        chain.append(leaves[chain[-1].next_leaf_id])
    return chain


class RoutingTable(NamedTuple):
    """The directory flattened for one pass: key ``k`` lands on leaf
    ``leaf_ids[bisect_right(fences, k)]`` through the internal node ids
    ``paths[leaf_id]`` (root first).  ``fence_array`` is ``fences`` as
    one NumPy array, for vectorized batch routing."""

    fences: list
    leaf_ids: list[int]
    paths: dict[int, list[int]]
    fence_array: np.ndarray


class NodeStore:
    """Allocates node ids (= index page ids) and charges node accesses.

    ``device`` and ``pool`` are set by :meth:`InnerTree.bind`; while
    ``device`` is ``None`` accesses are free.
    """

    def __init__(self) -> None:
        self.device: Device | None = None
        self.pool: BufferPool | None = None
        self._next_id = 0

    def allocate(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    @property
    def npages(self) -> int:
        """Index pages allocated so far."""
        return self._next_id

    def read(self, node_id: int, sequential: bool = False) -> None:
        """Charge the cost of fetching node ``node_id`` from the index device."""
        if self.pool is not None:
            self.pool.read_page(node_id, sequential=sequential)
        elif self.device is not None:
            self.device.read_page(node_id, sequential=sequential)

    def write(self, node_id: int, sequential: bool = False) -> None:
        """Charge the cost of writing node ``node_id`` back."""
        if self.device is not None:
            self.device.write_page(node_id, sequential=sequential)
        if self.pool is not None:
            self.pool.invalidate(node_id)


@dataclass
class InternalNode:
    """A <separator keys, child ids> page.

    ``children[i]`` subtends keys < ``keys[i]``; ``children[-1]`` subtends
    keys >= ``keys[-1]``.  Thus ``len(children) == len(keys) + 1``.
    """

    node_id: int
    keys: list = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    level: int = 1  # 1 = just above the leaves

    def child_index(self, child_id: int) -> int:
        return self.children.index(child_id)

    @property
    def nkeys(self) -> int:
        return len(self.keys)


class InnerTree:
    """Internal levels of a paged tree (everything above the leaves).

    The leaf level is owned by the concrete index (BF-Tree or B+-Tree);
    this class routes keys to leaf ids and keeps the directory balanced
    under splits.  Routing reads one :class:`RoutingTable`, built on
    first use and dropped by every method here that edits a built
    directory (:meth:`build`, :meth:`split_child`, :meth:`load_state`).
    An empty tree never holds a table; ``build([], [leaf])`` makes the
    one-leaf tree a first split grows.
    """

    def __init__(self, store: NodeStore, fanout: int | None = None) -> None:
        self.store = store
        self.fanout = fanout if fanout is not None else fanout_for()
        self.nodes: dict[int, InternalNode] = {}
        self.root_id: int | None = None
        self._single_leaf: int | None = None  # degenerate tree of one leaf
        self._table: RoutingTable | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_internal_nodes(self) -> int:
        return len(self.nodes)

    @property
    def height(self) -> int:
        """Levels including the leaf level (paper's Eq. 4 / Eq. 7 meaning)."""
        if self.root_id is None:
            return 1
        return self.nodes[self.root_id].level + 1

    # ------------------------------------------------------------------
    # storage binding
    # ------------------------------------------------------------------
    def bind(self, device: Device | None, warm: bool = False) -> None:
        """Charge node accesses to ``device`` (``None``: accesses are free).

        ``warm=True`` models the paper's warm-cache mode: all internal
        nodes are memory-resident, so only the leaf access (and data
        pages) cost device I/O.  The warm pool (:class:`BufferPool`)
        holds the internal nodes present at bind time, less any a split
        later writes.  No read changes which pages are resident, and no
        leaf is ever resident, so a leaf write's invalidation evicts
        nothing.  ``BFTree.apply_many`` relies on both: it queues the
        charges of a chunk's reads and known duplicate re-inserts per
        target leaf, makes each queue's charges once and replays them
        for the rest, and flushes only before a non-duplicate insert
        into that leaf, before a split (which writes internal nodes)
        and at chunk end.  Keep these properties (or charge every read
        and write at its turn again) when changing the pool.
        """
        self.store.device = device
        self.store.pool = (BufferPool(device, self.nodes)
                           if warm and device is not None else None)

    # ------------------------------------------------------------------
    # bulk build
    # ------------------------------------------------------------------
    def build(self, separators: list, leaf_ids: list[int]) -> None:
        """Build the directory over a sorted leaf level.

        ``separators[i]`` is the smallest key of ``leaf_ids[i + 1]`` — the
        standard B+-Tree bulk-load fence layout, so ``len(separators) ==
        len(leaf_ids) - 1``.
        """
        if len(separators) != len(leaf_ids) - 1:
            raise ValueError("need exactly len(leaf_ids) - 1 separators")
        self.nodes.clear()
        self.root_id = None
        self._single_leaf = None
        self._table = None
        if len(leaf_ids) == 1:
            self._single_leaf = leaf_ids[0]
            return
        level = 1
        child_ids = list(leaf_ids)
        fences = list(separators)
        while True:
            nodes, fences = self._build_level(child_ids, fences, level)
            child_ids = [node.node_id for node in nodes]
            if len(nodes) == 1:
                self.root_id = nodes[0].node_id
                return
            level += 1

    def _build_level(
        self, child_ids: list[int], fences: list, level: int
    ) -> tuple[list[InternalNode], list]:
        """Pack one level of internal nodes over ``child_ids``."""
        nodes: list[InternalNode] = []
        upper_fences: list = []
        i = 0
        n = len(child_ids)
        while i < n:
            take = min(self.fanout, n - i)
            # Avoid leaving a dangling single child in the final node.
            if 0 < n - i - take == 1:
                take -= 1
            node = InternalNode(
                node_id=self.store.allocate(),
                keys=fences[i : i + take - 1],
                children=child_ids[i : i + take],
                level=level,
            )
            self.nodes[node.node_id] = node
            nodes.append(node)
            if i + take < n:
                upper_fences.append(fences[i + take - 1])
            i += take
        return nodes, upper_fences

    # ------------------------------------------------------------------
    # descent
    # ------------------------------------------------------------------
    def routing_table(self) -> RoutingTable:
        """The directory's :class:`RoutingTable` (cached).

        Collapsing the per-level rightmost-biased binary searches into
        one sorted fence list routes every key to the leaf a level-by-
        level walk reaches, since each subtree's fences lie between the
        separators around it.  Callers must not edit the table.

        Raises ``LookupError`` on an empty tree.
        """
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> RoutingTable:
        """Walk the directory once into a fresh :class:`RoutingTable`."""
        if self.root_id is None:
            if self._single_leaf is None:
                raise LookupError("empty tree")
            return RoutingTable([], [self._single_leaf],
                                {self._single_leaf: []}, np.asarray([]))
        fences: list = []
        leaf_ids: list[int] = []
        paths: dict[int, list[int]] = {}

        def walk(node_id: int, path: list[int]) -> None:
            node = self.nodes[node_id]
            path = path + [node_id]
            for i, child in enumerate(node.children):
                if i > 0:
                    fences.append(node.keys[i - 1])
                if node.level == 1:
                    leaf_ids.append(child)
                    paths[child] = path
                else:
                    walk(child, path)

        walk(self.root_id, [])
        return RoutingTable(fences, leaf_ids, paths, np.asarray(fences))

    def route(self, key) -> tuple[int, list[int]]:
        """Route ``key`` to ``(leaf id, internal path ids)``; charges
        nothing (:meth:`charge_path` charges the descent).

        Raises ``LookupError`` on an empty tree.
        """
        table = self.routing_table()
        leaf_id = table.leaf_ids[bisect.bisect_right(table.fences, key)]
        return leaf_id, table.paths[leaf_id]

    def route_batch(self, keys) -> list[int]:
        """Leaf id of every key of a batch, as :meth:`route` gives it.

        A numeric batch is routed with one vectorized ``searchsorted``
        over the cached fence array; any other with one ``bisect_right``
        per key.  Every batch engine (reads, writes, deletes, scans)
        routes through this.  Raises ``LookupError`` on an empty tree.
        """
        fences, leaf_ids, _, fence_array = self.routing_table()
        n = len(keys)
        if not fences or not n:
            return [leaf_ids[0]] * n
        arr = np.asarray(keys)
        if arr.dtype.kind in "iufb":
            slots = np.searchsorted(fence_array, arr, side="right").tolist()
        else:
            slots = [bisect.bisect_right(fences, k) for k in keys]
        return [leaf_ids[s] for s in slots]

    def charge_path(self, path: list[int]) -> None:
        """Charge a descent through internal nodes ``path``: one node
        read each, then a binary search's key compares in each."""
        for node_id in path:
            self.store.read(node_id)
        if self.store.device is not None:
            self.store.device.stats.key_comparisons += (
                len(path) * math.log2(max(2, self.fanout)))

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def split_child(self, old_leaf: int, separator, new_leaf: int,
                    left: int | None = None) -> None:
        """Record that ``old_leaf`` split: ``new_leaf`` holds keys >=
        ``separator``, and ``left`` (default: ``old_leaf`` itself, split
        in place) takes ``old_leaf``'s slot below it."""
        if left is None:
            left = old_leaf
        if self.root_id is None:
            if self._single_leaf != old_leaf:
                raise ValueError("unknown leaf in degenerate tree")
            root = InternalNode(
                node_id=self.store.allocate(),
                keys=[separator],
                children=[left, new_leaf],
                level=1,
            )
            self.nodes[root.node_id] = root
            self.root_id = root.node_id
            self._single_leaf = None
            self._table = None
            return
        path = [self.nodes[i] for i in self.routing_table().paths[old_leaf]]
        self._table = None
        parent = path[-1]
        idx = parent.child_index(old_leaf)
        parent.children[idx] = left
        parent.keys.insert(idx, separator)
        parent.children.insert(idx + 1, new_leaf)
        self.store.write(parent.node_id)
        self._split_up(path)

    def _split_up(self, path: list[InternalNode]) -> None:
        """Split any overfull internal nodes on ``path``, bottom-up."""
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if len(node.children) <= self.fanout:
                return
            mid = len(node.children) // 2
            promoted = node.keys[mid - 1]
            right = InternalNode(
                node_id=self.store.allocate(),
                keys=node.keys[mid:],
                children=node.children[mid:],
                level=node.level,
            )
            node.keys = node.keys[: mid - 1]
            node.children = node.children[:mid]
            self.nodes[right.node_id] = right
            self.store.write(node.node_id)
            self.store.write(right.node_id)
            if depth == 0:
                new_root = InternalNode(
                    node_id=self.store.allocate(),
                    keys=[promoted],
                    children=[node.node_id, right.node_id],
                    level=node.level + 1,
                )
                self.nodes[new_root.node_id] = new_root
                self.root_id = new_root.node_id
                self.store.write(new_root.node_id)
                return
            parent = path[depth - 1]
            idx = parent.child_index(node.node_id)
            parent.keys.insert(idx, promoted)
            parent.children.insert(idx + 1, right.node_id)

    # ------------------------------------------------------------------
    # checkpoint serialization (repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Directory state for a checkpoint: nodes, root, allocator cursor.

        Serializing the directory verbatim (instead of re-running the
        bulk build on restore) keeps node ids — and therefore every
        simulated index-page charge — bit-identical across a
        checkpoint/restore cycle.
        """
        return {
            "fanout": self.fanout,
            "root_id": self.root_id,
            "single_leaf": self._single_leaf,
            "next_id": self.store._next_id,
            "nodes": [
                {
                    "node_id": node.node_id,
                    "keys": list(node.keys),
                    "children": list(node.children),
                    "level": node.level,
                }
                for node in self.nodes.values()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore the directory captured by :meth:`state_dict`.

        Keeps the existing :class:`NodeStore` (and with it any live
        device/pool binding); only the allocator cursor is overwritten.
        """
        self.fanout = int(state["fanout"])
        self.nodes.clear()
        for rec in state["nodes"]:
            node = InternalNode(
                node_id=int(rec["node_id"]),
                keys=list(rec["keys"]),
                children=[int(c) for c in rec["children"]],
                level=int(rec["level"]),
            )
            self.nodes[node.node_id] = node
        root = state["root_id"]
        self.root_id = None if root is None else int(root)
        single = state["single_leaf"]
        self._single_leaf = None if single is None else int(single)
        self._table = None
        self.store._next_id = int(state["next_id"])
