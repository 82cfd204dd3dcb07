"""Workloads, set-up and the correctness oracle of the serving benchmark.

Every workload serves one 4-shard BF-Tree service built over the
synthetic relation R (``pk`` column, unique, ordered) and replays a
seeded YCSB-style trace against it through the Router.  The client is a
closed loop: it sends one request of ``REQUEST_OPS`` operations, waits
for the reply, checks it against the oracle, and sends the next.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.persist import DurableIndex, make_durable_service
from repro.service import ShardedIndex
from repro.workloads import (
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    MixedTrace,
    derive_seed,
    generate_trace,
    synthetic,
)

N_TUPLES = 100_000
COLUMN = "pk"
N_SHARDS = 4
FPP = 0.02
STORAGE = "MEM/SSD"
REQUEST_OPS = 128
WAL_SYNC_EVERY = 256  # group commit: WAL records per fsync
CHUNK_OPS = 32_768  # trace ops generated at a time, outside the timed region


@dataclass(frozen=True)
class Workload:
    name: str
    mix: str
    skew: str
    hit_rate: float
    durable: bool


# Why each workload is in the benchmark: the "why" fields of BENCHMARK.json.
# read_miss is read_heavy's counterpart without data-page fetches, and
# durable_write's WAL uses group commit because per-batch fsync times on
# shared storage vary far more between runs than any bound could absorb.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("read_heavy", "read_heavy", "zipfian", 1.0, False),
    Workload("read_miss", "read_only", "uniform", 0.1, False),
    Workload("scan_mix", "scan_mix", "zipfian", 1.0, False),
    Workload("durable_write", "insert_heavy", "zipfian", 1.0, True),
)}


def build_relation(seed: int) -> Any:
    return synthetic.generate(N_TUPLES, seed=derive_seed(seed, "relation"))


def build_service(relation: Any, workload: Workload,
                  wal_dir: Path) -> ShardedIndex:
    """Bulk-load the sharded service (durable shards write their initial
    checkpoint under ``wal_dir``) and bind it to fresh storage stacks."""
    if workload.durable:
        service = make_durable_service(
            relation, COLUMN, wal_dir, n_shards=N_SHARDS, kind="bf",
            unique=True, sync_every=WAL_SYNC_EVERY, fpp=FPP,
        )
    else:
        service = ShardedIndex.build(relation, COLUMN, n_shards=N_SHARDS,
                                     kind="bf", unique=True, fpp=FPP)
    service.bind(STORAGE)
    return service


def release_service(service: ShardedIndex, wal_dir: Path) -> None:
    """Close durable shards' WAL files, unbind, and drop ``wal_dir``."""
    for shard in service.shards:
        if isinstance(shard.index, DurableIndex):
            shard.index.close()
    service.unbind()
    shutil.rmtree(wal_dir, ignore_errors=True)


@dataclass
class Request:
    trace: MixedTrace
    expected: np.ndarray  # tuples matching each read/scan; -1 for inserts


def requests(relation: Any, workload: Workload,
             seed: int) -> Iterator[Request]:
    """Endless stream of seeded requests with their oracle answers."""
    values = np.asarray(relation.columns[COLUMN])
    chunk = 0
    while True:
        trace = generate_trace(
            relation, COLUMN, mix=workload.mix, n_ops=CHUNK_OPS,
            skew=workload.skew, hit_rate=workload.hit_rate,
            seed=derive_seed(seed, "trace") + chunk,
        )
        lo = trace.keys.astype(np.int64)
        hi = np.where(trace.ops == OP_SCAN, lo + trace.scan_widths - 1, lo)
        expected = (np.searchsorted(values, hi, side="right")
                    - np.searchsorted(values, lo, side="left"))
        expected[trace.ops == OP_INSERT] = -1
        for start in range(0, CHUNK_OPS - REQUEST_OPS + 1, REQUEST_OPS):
            stop = start + REQUEST_OPS
            yield Request(trace.slice(start, stop), expected[start:stop])
        chunk += 1


def count_wrong(request: Request, results: list[Any]) -> int:
    """Operations whose result disagrees with the oracle."""
    if len(results) != len(request.trace):
        return len(request.trace)
    wrong = 0
    for code, want, got in zip(request.trace.ops.tolist(),
                               request.expected.tolist(), results):
        if code == OP_READ:
            wrong += got.found != (want > 0) or got.matches != want
        elif code == OP_SCAN:
            wrong += got.matches != want
        else:
            wrong += got is not None
    return wrong
