"""Golden page-scan cases: the baselines' data-page fetches.

``read_cases.py`` pins the BF-Tree and the B+-Tree ``att1`` read paths.
These cases pin every other backend's rid fetch and page scan: the
B+-Tree on a unique key, FD-Tree, hash index, SILT, and binary and
interpolation search on the sorted file, plus ``str``-keyed relations
(object and NumPy ``<U`` columns) under a BF-Tree, a B+-Tree, a hash
index and binary search.  The integer relation has a partial last page.
Each op yields the same digest as in ``read_cases`` (result with tids
hashed, IOStats delta, simulated latency).  ``record_page_scan.py``
writes them to ``page_scan.json``; ``tests/test_page_scan_golden.py``
replays and compares.

A case whose ``config`` is ``None`` runs unbound: no device charges,
so it pins results alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from golden.read_cases import _io_list, _probe_ops, encode_result, ops_digest
from repro.baselines import (
    BPlusTree,
    FDTree,
    FDTreeConfig,
    HashIndex,
    SiltStore,
    SortedFileSearch,
)
from repro.core import BFTree, BFTreeConfig
from repro.storage import Relation, build_stack
from repro.workloads import synthetic, tpch

N_TUPLES = 16384 - 9     # 16 tuples per page: the last page holds 7
N_STR = 4099             # 16 tuples per page: the last page holds 3


@dataclass
class Case:
    name: str
    build: Callable[[], object]
    config: str | None
    warm: bool
    ops: list[tuple]


_RELATIONS: dict[str, Relation] = {}


def synth() -> Relation:
    if "synth" not in _RELATIONS:
        _RELATIONS["synth"] = synthetic.generate(N_TUPLES, seed=23)
    return _RELATIONS["synth"]


def lineitem() -> Relation:
    if "lineitem" not in _RELATIONS:
        _RELATIONS["lineitem"] = tpch.generate(N_TUPLES, seed=9)
    return _RELATIONS["lineitem"]


def dblp(dtype: str) -> Relation:
    """Sorted DBLP-style keys (even numbers only: odd ones are in-domain
    misses) as an object-dtype or a NumPy ``<U`` column."""
    if dtype not in _RELATIONS:
        keys = [f"journals/pvldb/K{2 * i:06d}" for i in range(N_STR)]
        column = np.array(keys, dtype=object if dtype == "object" else str)
        _RELATIONS[dtype] = Relation({"key": column}, tuple_size=256,
                                     name="dblp")
    return _RELATIONS[dtype]


def _str_ops(seed: int, n: int = 48) -> list[tuple]:
    rng = np.random.default_rng(seed)
    ops = []
    for u, i in zip(rng.random(n), rng.integers(0, N_STR, size=n)):
        parity = 0 if u < 0.6 else 1
        ops.append(("search", f"journals/pvldb/K{2 * int(i) + parity:06d}"))
    first, last = "journals/pvldb/K000000", f"journals/pvldb/K{2 * N_STR - 2:06d}"
    return ops + [("search", first), ("search", last),
                  ("search", "conf/sigmod/K000001"),
                  ("search", "journals/vldbj/K000000")]


def _bin_ops(ops: list[tuple]) -> list[tuple]:
    return [("interp", k) for _, k in ops]


def _sorted_file(relation, column, unique=False):
    return lambda: SortedFileSearch(relation(), column, unique=unique)


def cases() -> list[Case]:
    rel, li = synth(), lineitem()
    pk_ops = _probe_ops(rel, "pk", 101, extra=(0, N_TUPLES - 1))
    att1_ops = _probe_ops(rel, "att1", 102)
    att1_lo = int(np.asarray(rel.columns["att1"])[0])
    att1_hi = int(np.asarray(rel.columns["att1"])[-1])
    att1_ops += [("search", att1_lo), ("search", att1_hi)]
    date_ops = _probe_ops(li, "commitdate", 103)
    return [
        Case("bplus_pk_unique",
             lambda: BPlusTree.bulk_load(synth(), "pk", unique=True),
             "HDD/HDD", False, pk_ops),
        Case("fd_pk_unique",
             lambda: FDTree.bulk_load(synth(), "pk", unique=True),
             "SSD/HDD", False, pk_ops),
        Case("fd_att1_clustered",
             lambda: FDTree.bulk_load(synth(), "att1",
                                      FDTreeConfig(clustered=True)),
             "HDD/HDD", False, att1_ops),
        Case("fd_att1_unclustered",
             lambda: FDTree.bulk_load(synth(), "att1"),
             "MEM/SSD", True, att1_ops),
        Case("hash_pk_unique",
             lambda: HashIndex.build(synth(), "pk", unique=True),
             "MEM/HDD", False, pk_ops),
        Case("hash_att1",
             lambda: HashIndex.build(synth(), "att1"),
             "SSD/SSD", False, att1_ops),
        Case("hash_tpch_commitdate_unsorted",
             lambda: HashIndex.build(lineitem(), "commitdate"),
             "MEM/SSD", False, date_ops),
        Case("silt_pk", lambda: SiltStore.build(synth(), "pk"),
             "SSD/HDD", False, pk_ops),
        Case("binsearch_pk_unique", _sorted_file(synth, "pk", unique=True),
             "HDD/HDD", False, pk_ops),
        Case("binsearch_att1", _sorted_file(synth, "att1"),
             "SSD/SSD", False, att1_ops),
        Case("interp_pk_unique", _sorted_file(synth, "pk", unique=True),
             "HDD/HDD", False, _bin_ops(pk_ops)),
        Case("interp_att1", _sorted_file(synth, "att1"),
             "MEM/SSD", False, _bin_ops(att1_ops)),
        Case("interp_att1_unbound", _sorted_file(synth, "att1"),
             None, False, _bin_ops(att1_ops) + att1_ops),
        Case("str_bf_object",
             lambda: BFTree.bulk_load(dblp("object"), "key",
                                      BFTreeConfig(fpp=0.05), unique=True),
             "SSD/SSD", False, _str_ops(104)),
        Case("str_bplus_object",
             lambda: BPlusTree.bulk_load(dblp("object"), "key", unique=True),
             "HDD/HDD", False, _str_ops(105)),
        Case("str_hash_unicode",
             lambda: HashIndex.build(dblp("unicode"), "key", unique=True),
             "MEM/SSD", False, _str_ops(106)),
        Case("str_binsearch_unicode", _sorted_file(lambda: dblp("unicode"),
                                                   "key", unique=True),
             "SSD/HDD", False, _str_ops(107)),
    ]


def _apply(index, op):
    if op[0] == "interp":
        return index.interpolation_search(op[1])
    return index.search(op[1])


def run_case(case: Case) -> dict:
    """Replay ``case`` one op at a time; per-op digests."""
    index = case.build()
    stack = build_stack(case.config or "MEM/SSD")
    if case.config is not None:
        index.bind(stack, warm=case.warm)
    results, io, latency = [], [], []
    for op in case.ops:
        before = stack.stats.snapshot()
        start = stack.elapsed()
        results.append(encode_result(_apply(index, op)))
        latency.append(stack.elapsed() - start)
        io.append(_io_list(stack.stats.diff(before)))
    return {"ops_digest": ops_digest(case), "results": results, "io": io,
            "latency": latency}
