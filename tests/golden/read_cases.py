"""Golden read-engine cases: the recorder and the golden test share them.

Each case builds one index over a ~16k-tuple relation, binds it to a
storage configuration and replays a seeded op list — point probes that
hit and miss, range scans (with and without §7 boundary enumeration on
BF-Trees) or §8 intersection probes — one op at a time.  Every op yields
a digest of its result (tids hashed), its IOStats delta and its
simulated latency.  ``record_read_engine.py`` writes those digests to
``read_engine.json``; ``tests/test_read_golden.py`` replays the cases
and compares, so read behaviour is pinned to recorded output rather than
to a second engine kept only for comparison.

Changing a case (relation, index, config or op list) changes its
``ops_digest``; the golden test then asks for a re-record instead of
reporting per-op mismatches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from repro.baselines import BPlusTree, BPlusTreeConfig
from repro.core import BFTree, BFTreeConfig
from repro.harness import run_probes
from repro.storage import FIVE_CONFIGS, IOStats, build_stack
from repro.workloads import point_probes, synthetic, tpch

N_TUPLES = 16384
N_INSERTS = 3000      # novel keys appended by the mutated case
IOSTATS_FIELDS = [f.name for f in fields(IOStats)]
_KC = IOSTATS_FIELDS.index("key_comparisons")


def assert_io_equal(got, want, rtol: float = 1e-9) -> None:
    """Compare IOStats (or their field lists, or lists and dicts of
    them): integer counters exactly; ``key_comparisons``, a float sum of
    ``log2`` terms whose last bits follow summation order, to ``rtol``."""
    if isinstance(want, IOStats):
        assert_io_equal(_io_list(got), _io_list(want), rtol)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert_io_equal(got[key], want[key], rtol)
    elif want and isinstance(want[0], (list, dict)):
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert_io_equal(mine, theirs, rtol)
    else:
        assert got[:_KC] + got[_KC + 1:] == want[:_KC] + want[_KC + 1:]
        assert math.isclose(got[_KC], want[_KC], rel_tol=rtol,
                            abs_tol=1e-9), (got[_KC], want[_KC])


@dataclass
class Case:
    name: str
    build: Callable[[], tuple]      # -> (index, intersection partner | None)
    config: str
    warm: bool
    ops: list[tuple]


_RELATIONS: dict[str, object] = {}


def synth():
    if "synth" not in _RELATIONS:
        _RELATIONS["synth"] = synthetic.generate(N_TUPLES, seed=21)
    return _RELATIONS["synth"]


def lineitem():
    if "lineitem" not in _RELATIONS:
        _RELATIONS["lineitem"] = tpch.generate(N_TUPLES, seed=5)
    return _RELATIONS["lineitem"]


def _probe_ops(relation, column, seed, n=48, extra=()):
    probes = point_probes(relation, column, n, hit_rate=0.6, seed=seed)
    keys = [int(k) for k in probes.keys] + [int(k) for k in extra]
    return [("search", k) for k in keys]


def _scan_ops(lo_max, width_max, seed, n=10, n_enum=0, enum_width=40):
    """``n`` plain windows (plus one past the domain and one covering it)
    and ``n_enum`` narrow windows scanned with boundary enumeration."""
    rng = np.random.default_rng(seed)
    ops = []
    for lo, w in zip(rng.integers(0, lo_max, size=n),
                     rng.integers(1, width_max + 1, size=n)):
        ops.append(("scan", int(lo), int(lo + w - 1), False))
    ops += [("scan", lo_max + 10, lo_max + 500, False),
            ("scan", 0, 2 * lo_max, False)]
    for lo, w in zip(rng.integers(0, lo_max, size=n_enum),
                     rng.integers(1, enum_width + 1, size=n_enum)):
        ops.append(("scan", int(lo), int(lo + w - 1), True))
    return ops


def _bf(relation, column, unique=False, ordered=None, **config):
    return lambda: (BFTree.bulk_load(relation(), column,
                                     BFTreeConfig(**config), unique=unique,
                                     ordered=ordered), None)


def _mutated_pk_tree():
    """pk tree after interleaved novel inserts (forcing leaf splits),
    tombstoned deletes and re-inserts of tombstoned keys."""
    rel = synth()
    tree = BFTree.bulk_load(rel, "pk", BFTreeConfig(fpp=1e-3), unique=True)
    leaves = tree.n_leaves
    for i in range(N_INSERTS):
        tree.insert(N_TUPLES + i, rel.npages - 1 - (i % 8))
        if i % 3 == 0:
            tree.delete(7 * i)
        victim = 7 * (i - 30)   # tombstoned 30 iterations ago
        if i % 5 == 0 and (i - 30) % 3 == 0 and 0 <= victim < N_TUPLES:
            tree.insert(victim, rel.page_of(victim))
    assert tree.n_leaves > leaves, "mutations must split leaves"
    return tree, None


def _intersection_pair():
    rel = lineitem()
    ship = BFTree.bulk_load(rel, "shipdate", BFTreeConfig(fpp=1e-3))
    commit = BFTree.bulk_load(rel, "commitdate", BFTreeConfig(fpp=1e-3),
                              ordered=False)
    return ship, commit


def _intersection_ops():
    rel = lineitem()
    ship = np.asarray(rel.columns["shipdate"])
    commit = np.asarray(rel.columns["commitdate"])
    rng = np.random.default_rng(31)
    rows = rng.integers(0, rel.ntuples, size=24)
    others = rng.integers(0, rel.ntuples, size=12)
    ops = [("intersect", int(ship[r]), int(commit[r])) for r in rows]
    ops += [("intersect", int(ship[a]), int(commit[b]))
            for a, b in zip(rows[:12], others)]
    hi = int(ship.max())
    ops += [("intersect", hi + 5, int(commit[0])), ("intersect", -3, -3)]
    return ops


def cases() -> list[Case]:
    rel, li = synth(), lineitem()
    att1_hi = int(np.asarray(rel.columns["att1"]).max())
    date_hi = int(np.asarray(li.columns["commitdate"]).max())
    pk_scans = _scan_ops(N_TUPLES, 300, seed=11, n_enum=6)
    inserted = [N_TUPLES + i for i in range(0, N_INSERTS, 197)]
    # Keys tombstoned and later re-inserted (i % 5 == 0), and keys left
    # tombstoned (i % 5 == 3); both are multiples of 3, so deleted.
    reinserted = [7 * i for i in range(0, N_INSERTS, 120)
                  if 7 * i < N_TUPLES]
    tombstoned = [7 * i for i in range(3, N_INSERTS, 120)
                  if 7 * i < N_TUPLES]
    return [
        Case("bf_pk_fpp0.2", _bf(synth, "pk", unique=True, fpp=0.2),
             "HDD/HDD", False, _probe_ops(rel, "pk", 1) + pk_scans),
        Case("bf_pk_fpp1e-3", _bf(synth, "pk", unique=True, fpp=1e-3),
             "MEM/SSD", False, _probe_ops(rel, "pk", 2) + pk_scans),
        Case("bf_pk_fpp1e-15", _bf(synth, "pk", unique=True, fpp=1e-15),
             "SSD/HDD", True, _probe_ops(rel, "pk", 3) + pk_scans),
        Case("bf_att1", _bf(synth, "att1", fpp=1e-3), "MEM/HDD", False,
             _probe_ops(rel, "att1", 4)
             + _scan_ops(att1_hi, 40, seed=12, n_enum=6, enum_width=8)),
        Case("bf_tpch_commitdate_partitioned",
             _bf(lineitem, "commitdate", ordered=False, fpp=1e-3),
             "SSD/SSD", False,
             _probe_ops(li, "commitdate", 5)
             + _scan_ops(date_hi, 30, seed=13, n_enum=6, enum_width=6)),
        Case("bf_pk_pages_per_bf3",
             _bf(synth, "pk", unique=True, fpp=1e-3, pages_per_bf=3),
             "MEM/SSD", True, _probe_ops(rel, "pk", 6) + pk_scans),
        Case("bf_pk_counting",
             _bf(synth, "pk", unique=True, fpp=1e-3, filter_kind="counting"),
             "SSD/SSD", False, _probe_ops(rel, "pk", 7) + pk_scans),
        Case("bf_pk_mutated", _mutated_pk_tree, "MEM/SSD", False,
             _probe_ops(rel, "pk", 8,
                        extra=inserted + reinserted + tombstoned)
             + _scan_ops(N_TUPLES + N_INSERTS, 300, seed=14, n_enum=6)),
        Case("bplus_att1_clustered",
             lambda: (BPlusTree.bulk_load(rel, "att1"), None),
             "HDD/HDD", False,
             _probe_ops(rel, "att1", 9) + _scan_ops(att1_hi, 60, seed=15)),
        Case("bplus_att1_unclustered",
             lambda: (BPlusTree.bulk_load(
                 rel, "att1", BPlusTreeConfig(clustered=False)), None),
             "MEM/SSD", True,
             _probe_ops(rel, "att1", 10) + _scan_ops(att1_hi, 60, seed=16)),
        Case("bf_intersect_tpch", _intersection_pair, "MEM/SSD", False,
             _intersection_ops()),
    ]


def ops_digest(case: Case) -> str:
    text = repr((case.config, case.warm, case.ops))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def _tids_digest(tids) -> str:
    return hashlib.sha1(
        np.asarray(tids, dtype=np.int64).tobytes()
    ).hexdigest()[:16]


def encode_result(result) -> list:
    if hasattr(result, "leaves_visited"):
        return [result.matches, result.pages_read, result.leaves_visited]
    return [bool(result.found), result.matches, result.pages_read,
            result.false_pages, _tids_digest(result.tids)]


def _io_list(io: IOStats) -> list[int]:
    return [getattr(io, name) for name in IOSTATS_FIELDS]


def _apply(index, partner, op):
    kind = op[0]
    if kind == "search":
        return index.search(op[1])
    if kind == "scan":
        _, lo, hi, enum = op
        if enum:
            return index.range_scan(lo, hi, enumerate_boundaries=True)
        return index.range_scan(lo, hi)
    return index.intersect_probe(partner, op[1], op[2])


def run_case(case: Case) -> dict:
    """Replay ``case`` one op at a time; per-op digests."""
    index, partner = case.build()
    stack = build_stack(case.config)
    index.bind(stack, warm=case.warm)
    if partner is not None:
        partner.bind(stack, warm=case.warm)
    results, io, latency = [], [], []
    for op in case.ops:
        before = stack.stats.snapshot()
        start = stack.elapsed()
        results.append(encode_result(_apply(index, partner, op)))
        latency.append(stack.elapsed() - start)
        io.append(_io_list(stack.stats.diff(before)))
    return {"ops_digest": ops_digest(case), "results": results, "io": io,
            "latency": latency}


def run_case_batched(case: Case) -> dict:
    """Replay ``case``'s searches and scans as three whole batches.

    Returns per-op results and latencies in op order plus the batch's
    total IOStats (per-op IOStats are not separable inside a batch).
    """
    index, partner = case.build()
    assert partner is None, "intersection probes have no batch engine"
    stack = build_stack(case.config)
    index.bind(stack, warm=case.warm)
    searches = [op[1] for op in case.ops if op[0] == "search"]
    scans = [op for op in case.ops if op[0] == "scan"]
    plain = [(lo, hi) for _, lo, hi, enum in scans if not enum]
    enum = [(lo, hi) for _, lo, hi, enum in scans if enum]
    before = stack.stats.snapshot()
    latency: list[float] = []
    results = index.search_many(searches, latency_sink=latency)
    results += index.range_scan_many(plain, latency_sink=latency)
    if enum:
        results += index.range_scan_many(enum, enumerate_boundaries=True,
                                         latency_sink=latency)
    # Ops are listed searches first, then plain scans, then enumerating
    # scans, so the concatenation is already in op order.
    return {"results": [encode_result(r) for r in results],
            "io_total": _io_list(stack.stats.diff(before)),
            "latency": latency}


def run_probe_cells() -> dict:
    """``run_probes`` stats for a BF-Tree and a B+-Tree over every
    storage configuration, cold and warm."""
    rel = synth()
    probes = point_probes(rel, "att1", 200, hit_rate=0.5, seed=41)
    indexes = {
        "bf_att1": BFTree.bulk_load(rel, "att1", BFTreeConfig(fpp=1e-3)),
        "bplus_att1": BPlusTree.bulk_load(rel, "att1"),
    }
    cells = {}
    for name, index in indexes.items():
        for config in FIVE_CONFIGS:
            for warm in (False, True):
                stats = run_probes(index, probes, config, warm=warm)
                key = f"{name}|{config.name}|{'warm' if warm else 'cold'}"
                cells[key] = {
                    "n_probes": stats.n_probes,
                    "hits": stats.hits,
                    "total_matches": stats.total_matches,
                    "io": _io_list(stats.io),
                    "avg_latency": stats.avg_latency,
                }
    return cells
