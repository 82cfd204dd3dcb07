"""Golden write-engine cases: the recorder and the golden test share them.

Each case bulk-loads a BF-Tree over the pk column of a ~16k-tuple
relation, binds it to a storage configuration and replays a seeded list
of write steps:

* scalar ``insert`` of novel keys (past the domain, into the last leaf,
  some of them splitting it) and of present keys at their own pages
  (re-inserts the leaf's filters classify as duplicates);
* ``insert_overflow`` of present keys at a neighbouring page;
* ``delete`` with and without a page id, and ``delete_many`` mixing
  both (plus keys that are not indexed);
* ``apply_many`` chunks mixing reads, range scans, novel and duplicate
  inserts, splitting mid-chunk.

Every step yields its outcome (a digest of them for a batch step), its
IOStats delta, its simulated latencies and a digest of the whole tree
afterwards; the last step also records each leaf's digest.  A leaf digest covers each filter
row's bits (and counters, for counting filters) and add count plus the
leaf's bookkeeping and hash seed, independently of how the leaf lays
its filters out in memory.  ``record_write_engine.py`` writes the
digests to ``write_engine.json``; ``tests/test_write_golden.py``
replays the cases and compares.

Keys re-inserted as duplicates (``k % 4 == 1``) are never deleted in
place: a counting tree counts such re-inserts, and deleting one is the
case whose ``nkeys`` bookkeeping is tested separately
(``tests/test_counting_tree.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from golden.read_cases import _io_list, encode_result, synth
from repro.core import BFTree, BFTreeConfig
from repro.core.bloom import page_to_rows
from repro.storage import build_stack
from repro.workloads import OP_INSERT, OP_READ, OP_SCAN

CHUNK = 512


@dataclass
class Case:
    name: str
    config: BFTreeConfig
    storage: str
    seed: int

    def build(self) -> BFTree:
        return BFTree.bulk_load(synth(), "pk", self.config, unique=True)


def cases() -> list[Case]:
    return [
        Case("bf_pk_fpp0.2", BFTreeConfig(fpp=0.2), "HDD/HDD", 1),
        Case("bf_pk_fpp1e-3", BFTreeConfig(fpp=1e-3), "MEM/SSD", 2),
        Case("bf_pk_counting_fpp1e-3",
             BFTreeConfig(fpp=1e-3, filter_kind="counting"), "SSD/SSD", 3),
    ]


def _chunks(ops):
    return [("apply_many", ops[i:i + CHUNK])
            for i in range(0, len(ops), CHUNK)]


def steps(case: Case) -> list[tuple]:
    """The case's write steps, derived from the freshly built tree."""
    rel = synth()
    n, tpp = rel.ntuples, rel.tuples_per_page
    probe = case.build()
    last = probe.leaves_in_order()[-1]
    rng = np.random.default_rng(case.seed)
    novel = iter(range(n, 10 * n))
    # Novel keys sort past the domain and live on the last page, which
    # every split of the last leaf keeps (a split rebuilds its children
    # from the relation, so they lose the novel keys).
    tail_pid = rel.npages - 1

    def page(key):
        return key // tpp

    def dup_key():
        return int(rng.integers(0, n // 4)) * 4 + 1

    def mixed(n_ops, n_novel):
        """A shuffled op list: ``n_novel`` novel inserts in key order,
        duplicate re-inserts, hitting and missing reads and short
        scans."""
        ops = [(OP_INSERT, next(novel), tail_pid) for _ in range(n_novel)]
        while len(ops) < n_ops:
            roll = rng.random()
            if roll < 0.35:
                key = dup_key()
                ops.append((OP_INSERT, key, page(key)))
            elif roll < 0.85:
                key = int(rng.integers(0, n + n // 8))
                ops.append((OP_READ, key, None))
            else:
                lo = int(rng.integers(0, n))
                ops.append((OP_SCAN, lo, lo + int(rng.integers(1, 60))))
        slots = set(rng.permutation(len(ops))[:n_novel].tolist())
        firsts, rest = iter(ops[:n_novel]), iter(ops[n_novel:])
        return [next(firsts) if i in slots else next(rest)
                for i in range(len(ops))]

    # Fill the last leaf to just below its split point in batches, then
    # split it with scalar inserts: count them on an unbound copy.
    fill = max(0, last.key_capacity - last.nkeys - 40)
    out = _chunks(mixed(fill + fill // 2 + 200, fill))
    for _, ops in out:
        probe.apply_many(ops)
    leaves = probe.n_leaves
    scalar = []
    while probe.n_leaves == leaves or len(scalar) < 20:
        key = next(novel)
        probe.insert(key, tail_pid)
        scalar.append(("insert", key, tail_pid))
    out += scalar
    for _ in range(40):
        key = dup_key()
        out.append(("insert", key, page(key)))
    for _ in range(30):
        key = int(rng.integers(0, n - tpp))
        out.append(("insert_overflow", key, page(key) + 1))
    in_place = [int(k) * 4 + 2 for k in rng.choice(n // 4, 40, replace=False)]
    out += [("delete", key, page(key)) for key in in_place]
    out += [("delete", int(k) * 4 + 3, None)
            for k in rng.choice(n // 4, 20, replace=False)]
    out += [("delete", 10 * n + 5, None), ("delete", -7, 0)]
    batch = [int(k) * 4 + 2 + int(k) % 2
             for k in rng.choice(n // 4, 60, replace=False)]
    batch = [k for k in batch if k not in in_place]
    out.append(("delete_many", batch + [10 * n + 9],
                [page(k) if k % 2 == 0 else None for k in batch] + [3]))
    reinserted = in_place[:20]
    # Enough novel keys to split the last leaf again, mid-chunk.
    last = probe.leaves_in_order()[-1]
    tail_novel = last.key_capacity - last.nkeys + 150
    tail = mixed(tail_novel + tail_novel // 2, tail_novel)
    tail[5:5] = [(OP_INSERT, key, page(key)) for key in reinserted]
    tail += [(OP_READ, key, None) for key in in_place + batch]
    out += _chunks(tail)
    # Tombstone some re-inserted keys.  (Not in place: a re-insert into
    # a full leaf splits it, the split re-adds the deleted key from the
    # relation, and a counting leaf then holds the key twice.)
    out += [("delete", key, None) for key in reinserted[:10]]
    out += _chunks([(OP_READ, key, None) for key in reinserted]
                   + mixed(200, 40))
    return out


def steps_digest(step_list) -> str:
    return hashlib.sha1(repr(step_list).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# layout-independent leaf digests
# ----------------------------------------------------------------------
def _filters_digest(leaf) -> str:
    """Digest of each filter row in order: its add count (8 bytes, little
    endian), its bits packed little-endian, then its counters (counting
    filters only)."""
    n, nbits = leaf.nfilters, leaf.geometry.bits_per_bf
    raw = page_to_rows(leaf.page, n).astype("<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :nbits]
    parts = [
        np.asarray(leaf.counts, dtype="<i8").view(np.uint8).reshape(n, 8),
        np.packbits(bits, axis=1, bitorder="little"),
    ]
    if leaf.counters is not None:
        parts.append(leaf.counters[:n])
    return hashlib.sha1(np.hstack(parts).tobytes()).hexdigest()[:16]


def leaf_digest(leaf) -> dict:
    deleted = hashlib.sha1(
        repr(sorted(leaf.deleted_keys)).encode()
    ).hexdigest()[:16]
    return {
        "node_id": leaf.node_id,
        "min_pid": leaf.min_pid,
        "keys": [leaf.min_key, leaf.max_key],
        "nkeys": leaf.nkeys,
        "extra_inserts": leaf.extra_inserts,
        "pages_covered": leaf.pages_covered,
        "spill_back_pages": leaf.spill_back_pages,
        "tombstones": [len(leaf.deleted_keys), deleted],
        "seed": leaf.filter_seed,
        "nfilters": leaf.nfilters,
        "filters": _filters_digest(leaf),
    }


def tree_digest(tree) -> str:
    text = repr([leaf_digest(leaf) for leaf in tree.leaves_in_order()])
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _encode(outcome):
    if outcome is None:
        return None
    if hasattr(outcome, "tombstoned"):
        return [bool(outcome.removed), bool(outcome.tombstoned)]
    return encode_result(outcome)


def _apply(tree, step, sink):
    kind = step[0]
    if kind == "insert":
        return tree.insert(step[1], step[2])
    if kind == "insert_overflow":
        return tree.insert_overflow(step[1], step[2])
    if kind == "delete":
        return tree.delete(step[1], pid=step[2])
    if kind == "delete_many":
        return [_encode(o) for o in
                tree.delete_many(step[1], step[2], latency_sink=sink)]
    return [_encode(r) for r in tree.apply_many(step[1], latency_sink=sink)]


def run_case(case: Case) -> dict:
    """Replay ``case``'s steps; per-step digests and final leaf digests."""
    step_list = steps(case)
    tree = case.build()
    leaves = tree.n_leaves
    stack = build_stack(case.storage)
    tree.bind(stack)
    outcomes, io, latency, trees = [], [], [], []
    for step in step_list:
        before = stack.stats.snapshot()
        start = stack.elapsed()
        sink: list[float] = []
        got = _apply(tree, step, sink)
        # A batch step's outcomes are digested: thousands of ops.
        outcomes.append(
            hashlib.sha1(repr(got).encode()).hexdigest()[:16]
            if isinstance(got, list) else _encode(got)
        )
        latency.append(sink if isinstance(got, list)
                       else stack.elapsed() - start)
        io.append(_io_list(stack.stats.diff(before)))
        trees.append(tree_digest(tree))
    assert tree.n_leaves >= leaves + 2, "the steps must split twice"
    return {
        "steps_digest": steps_digest(step_list),
        "outcomes": outcomes,
        "io": io,
        "latency": latency,
        "trees": trees,
        "leaves": [leaf_digest(leaf) for leaf in tree.leaves_in_order()],
    }
