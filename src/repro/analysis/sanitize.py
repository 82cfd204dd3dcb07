"""Runtime structural sanitizer for index and service state.

Static lint (:mod:`repro.analysis.lint`) guards the source; this
module guards the *objects*.  Each ``check_*`` function walks one
structure — pure Python traversal, no device charges, so enabling it
never perturbs IOStats or the simulated time priced from them — and
raises :class:`StructuralCorruption` with a precise diagnostic on the first
violated invariant:

* :func:`check_tree` — BF-Tree leaf-chain pointer integrity and key
  ordering, per-leaf ``nkeys``/add-count/capacity consistency, the
  filter layout (add counts per filter, no bit set for a filter past
  the ones in use, a counting leaf's bit page equal to its counters
  above zero),
  hash-geometry uniformity, directory ↔ chain agreement, the cached
  routing table equal to a fresh one;
* :func:`check_bplus` — B+-Tree chain pointers, in-leaf key order,
  key/ridlist pairing, cross-leaf span ordering, and the same
  directory checks;
* :func:`check_fd` — FD-Tree head/level sort order, merge-level
  tombstone annihilation, tombstone victim range;
* :func:`check_sharded` — routing-table ↔ shard ``lo_key`` agreement,
  boundary monotonicity, leaf spans confined to their shard's slice,
  then each shard's index recursively.

Enablement: set ``REPRO_SANITIZE=1`` (any value other than ``0``/
``false``/``no``) before the process starts, pass ``--sanitize`` to the
CLI, or call :func:`force` from code.  The variable is read once, at
import, and again on ``force(None)``.  When enabled, :func:`maybe_check`
— wired into every batch mutation path (each writing ``apply_many``
chunk of the ``IndexBackend`` fallback and of the BF-Tree engine, which
``insert_many`` and ``delete_many`` call, and each inserting or
deleting round of a Router replay) — validates the mutated structure
after each batch.  When disabled it is a single ``if`` per batch.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

import numpy as np


ENV_VAR = "REPRO_SANITIZE"


def _env_switch() -> bool:
    return os.environ.get(ENV_VAR, "0").lower() not in ("", "0", "false", "no")


_ENABLED: bool = _env_switch()


class StructuralCorruption(AssertionError):
    """An index or service structure violates a structural invariant."""


def force(on: bool | None) -> None:
    """Override the environment switch: True/False force, None re-reads
    the environment."""
    global _ENABLED
    _ENABLED = _env_switch() if on is None else on


def enabled() -> bool:
    """True when sanitizer checks should run."""
    return _ENABLED


def maybe_check(obj: Any) -> None:
    """Validate ``obj`` if sanitizing is enabled; no-op otherwise."""
    if _ENABLED:
        check(obj)


def check(obj: Any) -> None:
    """Dispatch to the matching ``check_*`` validator (unknown types pass)."""
    # Imports are lazy so low-level modules can import this one freely.
    from repro.baselines.bptree import BPlusTree
    from repro.baselines.fd_tree import FDTree
    from repro.core.bf_tree import BFTree
    from repro.persist.durable import DurableIndex
    from repro.service.sharded import ShardedIndex

    if isinstance(obj, DurableIndex):
        # Durability is a wrapper concern; the structure lives inside.
        check(obj.inner)
    elif isinstance(obj, ShardedIndex):
        check_sharded(obj)
    elif isinstance(obj, BFTree):
        check_tree(obj)
    elif isinstance(obj, BPlusTree):
        check_bplus(obj)
    elif isinstance(obj, FDTree):
        check_fd(obj)


def _fail(structure: str, message: str) -> None:
    raise StructuralCorruption(f"{structure}: {message}")


def _walk_chain(structure: str, leaves_by_id: dict[int, Any]) -> list[Any]:
    """Strictly validate a doubly-linked leaf chain; return it in order."""
    if not leaves_by_id:
        return []
    targets = {
        l.next_leaf_id
        for l in leaves_by_id.values()
        if l.next_leaf_id is not None
    }
    heads = [l for lid, l in leaves_by_id.items() if lid not in targets]
    if not heads:
        _fail(structure, "leaf chain has no head (next-pointer cycle)")
    if len(heads) > 1:
        ids = sorted(l.node_id for l in heads)
        _fail(structure, f"leaf chain has {len(heads)} heads {ids} "
                         "(broken next pointers)")
    chain = [heads[0]]
    seen = {heads[0].node_id}
    while chain[-1].next_leaf_id is not None:
        nid = chain[-1].next_leaf_id
        if nid in seen:
            _fail(structure,
                  f"leaf {chain[-1].node_id} next pointer re-enters the "
                  f"chain at leaf {nid} (cycle)")
        nxt = leaves_by_id.get(nid)
        if nxt is None:
            _fail(structure,
                  f"leaf {chain[-1].node_id} next pointer names unknown "
                  f"leaf {nid}")
        chain.append(nxt)
        seen.add(nid)
    if len(chain) != len(leaves_by_id):
        missing = sorted(set(leaves_by_id) - seen)
        _fail(structure,
              f"{len(missing)} leaves unreachable from the chain head: "
              f"{missing[:8]}")
    if chain[0].prev_leaf_id is not None:
        _fail(structure,
              f"head leaf {chain[0].node_id} has prev pointer "
              f"{chain[0].prev_leaf_id} (expected None)")
    for left, right in zip(chain, chain[1:]):
        if right.prev_leaf_id != left.node_id:
            _fail(structure,
                  f"leaf {right.node_id} prev pointer "
                  f"{right.prev_leaf_id} disagrees with chain "
                  f"predecessor {left.node_id}")
    return chain


# ---------------------------------------------------------------------------
# BF-Tree


def check_tree(tree: Any) -> None:
    """Validate a :class:`~repro.core.bf_tree.BFTree`."""
    name = "BFTree"
    chain = _walk_chain(name, tree.leaves)
    for leaf in chain:
        _check_bf_leaf(name, leaf)
    # A batch hashes the keys of every leaf it touches in one call.
    hash_geometries = {(leaf.geometry.hash_count, leaf.geometry.bits_per_bf)
                       for leaf in chain}
    if len(hash_geometries) > 1:
        _fail(name, f"leaves disagree on (hash_count, bits_per_bf): "
                    f"{sorted(hash_geometries)}")
    if tree.ordered:
        for left, right in zip(chain, chain[1:]):
            if (
                left.max_key is not None
                and right.min_key is not None
                and right.min_key < left.max_key
            ):
                _fail(name,
                      f"key order inverted across leaves {left.node_id} -> "
                      f"{right.node_id}: max_key {left.max_key!r} > "
                      f"min_key {right.min_key!r}")
            if right.min_pid < left.min_pid:
                _fail(name,
                      f"page order inverted across leaves {left.node_id} "
                      f"-> {right.node_id}: min_pid {right.min_pid} < "
                      f"{left.min_pid}")
    _check_directory(name, tree.inner, chain)


def _check_directory(name: str, inner: Any, chain: list[Any]) -> None:
    """A cached routing table equals one built afresh from the nodes
    (so no edit bypassed the directory's own mutators), the table's
    leaves are the chain's in order, and its fences are sorted.  Builds
    the fresh table aside: checking never fills or drops the cache."""
    if not chain:
        return
    cached = inner._table
    fresh = inner._build_table()
    if cached is not None and (
            cached.fences != fresh.fences
            or cached.leaf_ids != fresh.leaf_ids
            or cached.paths != fresh.paths
            or not np.array_equal(cached.fence_array, fresh.fence_array)):
        _fail(name, "cached routing table is stale: it disagrees with "
                    "the directory's nodes")
    directory = fresh.leaf_ids
    chain_ids = [l.node_id for l in chain]
    if directory != chain_ids:
        _fail(name,
              f"directory leaf order {directory[:8]}... disagrees with "
              f"chain order {chain_ids[:8]}...")
    fences = fresh.fences
    if any(b < a for a, b in zip(fences, fences[1:])):
        _fail(name, f"directory fences not sorted: {fences[:8]}...")


def _check_bf_leaf(name: str, leaf: Any) -> None:
    where = f"leaf {leaf.node_id}"
    if (
        leaf.min_key is not None
        and leaf.max_key is not None
        and leaf.max_key < leaf.min_key
    ):
        _fail(name, f"{where}: min_key {leaf.min_key!r} > max_key "
                    f"{leaf.max_key!r}")
    if leaf.nkeys < 0:
        _fail(name, f"{where}: negative nkeys {leaf.nkeys}")
    if leaf.extra_inserts < 0:
        _fail(name, f"{where}: negative extra_inserts {leaf.extra_inserts}")
    # Deletes shrink nkeys without reclaiming extra_inserts (set bits are
    # permanent), so the bound is one-sided.
    over = leaf.nkeys - leaf.key_capacity
    if over > 0 and leaf.extra_inserts < over:
        _fail(name,
              f"{where}: nkeys {leaf.nkeys} exceeds capacity "
              f"{leaf.key_capacity} but extra_inserts "
              f"{leaf.extra_inserts} < {over} (overflow unaccounted)")
    _check_leaf_filters(name, where, leaf)


def _check_leaf_filters(name: str, where: str, leaf: Any) -> None:
    """The filter layout: one add count per filter in use, at least one
    add per indexed key, a data page for every filter in use (filters
    grow only with the pages they cover, so a probe's page runs are
    never empty), a bit-sliced page with one row per filter bit and no
    bit set for a filter past the ones in use (so a batch probe
    gathering whole rows matches nothing there), and on a counting
    leaf a bit page equal to its counters above zero."""
    n = leaf.nfilters
    if len(leaf.counts) != n:
        _fail(name, f"{where}: {len(leaf.counts)} add counts for "
                    f"{n} filters")
    total = sum(leaf.counts)
    if leaf.nkeys > total:
        _fail(name,
              f"{where}: nkeys {leaf.nkeys} exceeds total filter "
              f"insert count {total} (keys unindexed by any filter)")
    page, geo = leaf.page, leaf.geometry
    if n and leaf.pages_covered <= (n - 1) * geo.pages_per_bf:
        _fail(name, f"{where}: filter {n - 1} covers no page "
                    f"(pages_covered={leaf.pages_covered})")
    if (page.ndim != 2 or page.shape[0] != geo.bits_per_bf
            or 8 * page.shape[1] < n):
        _fail(name, f"{where}: page of shape {page.shape} cannot hold "
                    f"{n} filters of {geo.bits_per_bf} bits")
    used = (n + 7) // 8
    if page[:, used:].any() or (n & 7 and (page[:, n >> 3] >> (n & 7)).any()):
        _fail(name, f"{where}: page bits of filters at or past "
                    f"nfilters={n} hold set bits")
    counters = leaf.counters
    if counters is None:
        return
    if counters.shape[0] < n or counters.shape[1:] != (geo.bits_per_bf,):
        _fail(name, f"{where}: counter page of shape {counters.shape} "
                    f"cannot hold {n} filters of {geo.bits_per_bf} bits")
    if counters[n:].any():
        _fail(name, f"{where}: counter rows at or past nfilters={n} are "
                    f"nonzero")
    if not np.array_equal(page[:, :used],
                          np.packbits((counters[:n] > 0).T, axis=1,
                                      bitorder="little")):
        _fail(name, f"{where}: bit page disagrees with counters > 0")


# ---------------------------------------------------------------------------
# B+-Tree


def check_bplus(tree: Any) -> None:
    """Validate a :class:`~repro.baselines.bptree.BPlusTree`."""
    name = "BPlusTree"
    chain = _walk_chain(name, tree.leaves)
    for leaf in chain:
        if len(leaf.keys) != len(leaf.ridlists):
            _fail(name,
                  f"leaf {leaf.node_id}: {len(leaf.keys)} keys but "
                  f"{len(leaf.ridlists)} rid lists")
        if any(b <= a for a, b in zip(leaf.keys, leaf.keys[1:])):
            _fail(name,
                  f"leaf {leaf.node_id}: keys not strictly increasing")
    occupied = [l for l in chain if l.keys]
    for left, right in zip(occupied, occupied[1:]):
        if right.keys[0] < left.keys[-1]:
            _fail(name,
                  f"key order inverted across leaves {left.node_id} -> "
                  f"{right.node_id}: {left.keys[-1]!r} > {right.keys[0]!r}")
    _check_directory(name, tree.inner, chain)


# ---------------------------------------------------------------------------
# FD-Tree


def _check_sorted_run(name: str, label: str,
                      run: Iterable[tuple[Any, int]]) -> None:
    run = list(run)
    if any(b < a for a, b in zip(run, run[1:])):
        _fail(name, f"{label} is not sorted")


def check_fd(fd: Any) -> None:
    """Validate a :class:`~repro.baselines.fd_tree.FDTree`."""
    name = "FDTree"
    _check_sorted_run(name, "head run", fd.head)
    _check_tombstones(name, "head run", fd.head, fd)
    for i, level in enumerate(fd.levels):
        label = f"level {i + 1}"
        _check_sorted_run(name, label, level)
        _check_tombstones(name, label, level, fd)
        # _sorted_merge annihilates tombstone/entry pairs, so a
        # merge-produced level may never hold both (the head may: a
        # delete of an entry still buffered there coexists until the
        # next merge).
        start = 0
        while start < len(level):
            end = start
            key = level[start][0]
            while end < len(level) and level[end][0] == key:
                end += 1
            group = level[start:end]
            tombs = {-t - 1 for _, t in group if t < 0}
            live = {t for _, t in group if t >= 0}
            stuck = tombs & live
            if stuck:
                _fail(name,
                      f"{label}: key {key!r} holds tombstone/entry pairs "
                      f"for tids {sorted(stuck)} that a merge should have "
                      "annihilated")
            start = end


def _check_tombstones(name: str, label: str, run: Iterable[tuple[Any, int]],
                      fd: Any) -> None:
    ntuples = None if fd.relation is None else fd.relation.ntuples
    for key, t in run:
        victim = -t - 1 if t < 0 else t
        if victim < 0 or (ntuples is not None and victim >= ntuples):
            kind = "tombstone" if t < 0 else "entry"
            _fail(name,
                  f"{label}: {kind} ({key!r}, {t}) names tuple id "
                  f"{victim} outside the relation's [0, {ntuples}) range")


# ---------------------------------------------------------------------------
# sharded service


def check_sharded(svc: Any) -> None:
    """Validate a :class:`~repro.service.sharded.ShardedIndex`.

    Epoch-aware: the routing table is the source of truth, so the check
    validates the *table* (entry order, fence cache, id uniqueness),
    then the table↔shard agreement (each entry's shard exists, carries
    the entry's id and lo_key), then each shard's leaf spans against its
    table range — and recurses into every shard's index.  It passes at
    every epoch of a live split/merge sequence; a stale entry left
    behind by a topology change fails with a precise diagnostic.
    """
    name = "ShardedIndex"
    table = svc.table
    entries = list(table.entries)
    where = f"epoch {table.epoch}"
    if not entries:
        _fail(name, f"{where}: routing table has no entries")
    if entries[0].lo_key is not None:
        _fail(name,
              f"{where}: leftmost entry lo_key is {entries[0].lo_key!r} "
              "(expected None: it serves the open left end)")
    fences = [e.lo_key for e in entries[1:]]
    cached = list(table.boundaries)
    if len(cached) != len(fences) or any(
        b != lo for b, lo in zip(cached, fences)
    ):
        _fail(name,
              f"{where}: cached fence array {cached!r} disagrees with "
              f"routing entries {fences!r} (stale routing state)")
    if any(b <= a for a, b in zip(fences, fences[1:])):
        _fail(name,
              f"{where}: routing fences not strictly increasing: "
              f"{fences!r}")
    ids = [e.shard_id for e in entries]
    if len(set(ids)) != len(ids):
        _fail(name, f"{where}: duplicate shard ids in routing table: "
                    f"{ids!r}")
    by_id = svc._by_id
    if set(by_id) != set(ids):
        _fail(name,
              f"{where}: routing table ids {sorted(ids)} disagree with "
              f"registered shards {sorted(by_id)}")
    shards = svc.shards
    if len(shards) != len(entries):
        _fail(name,
              f"{where}: {len(shards)} shards vs {len(entries)} routing "
              "entries")
    for o, (entry, shard) in enumerate(zip(entries, shards)):
        sid = entry.shard_id
        if shard.shard_id != sid:
            _fail(name,
                  f"{where}: entry {o} names shard id {sid} but the "
                  f"shard at that ordinal is id {shard.shard_id}")
        if shard.lo_key != entry.lo_key and not (
            shard.lo_key is None and entry.lo_key is None
        ):
            _fail(name,
                  f"{where}: routing entry {o} (shard {sid}) lo_key "
                  f"{entry.lo_key!r} disagrees with the shard's lo_key "
                  f"{shard.lo_key!r} (stale routing entry)")
        index = shard.index
        if index.supports_sharding and index.n_leaves:
            lo = entry.lo_key
            hi = table.boundary_of(o)
            for leaf in index.shard_leaves():
                span_lo, span_hi = index.shard_leaf_span(leaf)
                if lo is not None and span_lo is not None and span_lo < lo:
                    _fail(name,
                          f"{where}: shard {sid}: leaf span starts at "
                          f"{span_lo!r}, below the shard's lo fence "
                          f"{lo!r}")
                # Rightmost-biased routing sends key == boundary to the
                # next shard, so this shard's spans stay strictly below.
                if hi is not None and span_hi is not None and span_hi >= hi:
                    _fail(name,
                          f"{where}: shard {sid}: leaf span ends at "
                          f"{span_hi!r}, at or past the next range's "
                          f"fence {hi!r}")
        check(index)
