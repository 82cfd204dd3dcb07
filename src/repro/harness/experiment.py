"""Experiment runner: measured index probes over the five storage configs.

This is the machinery behind every measured figure/table of Section 6:
build an index once per parameterization, bind it to a fresh
:class:`~repro.storage.config.StorageStack` per storage configuration,
replay a :class:`~repro.workloads.queries.ProbeSet`, and report average
simulated latency plus I/O counters.  Warm-cache mode keeps the
index's internal nodes resident, mirroring the paper's §6.2 "warm caches"
experiments where only leaf accesses cause I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.baselines.bptree import BPlusTree
from repro.core.bf_tree import BFTree, BFTreeConfig
from repro.service.router import Router
from repro.service.sharded import ShardedIndex
from repro.service.stats import LatencySummary, ServiceStats
from repro.storage.config import FIVE_CONFIGS, StorageConfig, build_stack
from repro.storage.iostats import IOStats
from repro.storage.relation import Relation
from repro.workloads.mixed import MixedTrace
from repro.workloads.queries import ProbeSet


@dataclass
class ProbeStats:
    """Aggregate outcome of replaying one probe set on one index."""

    n_probes: int
    hits: int
    avg_latency: float              # simulated seconds per probe
    false_reads_per_search: float
    data_reads_per_search: float
    index_reads_per_search: float
    total_matches: int
    io: IOStats = field(default_factory=IOStats)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.n_probes if self.n_probes else 0.0


def run_probes(
    index,
    probes: ProbeSet | Sequence,
    config: StorageConfig | str,
    warm: bool = False,
) -> ProbeStats:
    """Replay ``probes`` against ``index`` on a fresh storage stack.

    The whole probe set goes through the index's ``search_many``, which
    the Index protocol (:mod:`repro.api`) guarantees on every backend: a
    vectorized batch-probe engine where one exists (BF-Tree), the
    generic per-key loop everywhere else.  A probe's charges do not
    depend on the others in its batch, so the numbers equal those of
    probing each key alone.  Every charge on the search path states its
    access pattern — the first data page of each probe is charged as
    random, the cold per-query behaviour of the paper's O_DIRECT runs —
    so no device state carries from one probe to the next.  ``warm``
    keeps the internal index nodes resident.
    """
    keys = probes.keys if isinstance(probes, ProbeSet) else np.asarray(probes)
    stack = build_stack(config)
    index.bind(stack, warm=warm)
    try:
        before = stack.stats.snapshot()
        results = index.search_many(keys)
        io = stack.stats.diff(before)
        total_latency = stack.price(io)
    finally:
        index.unbind()
    found = [result for result in results if result.found]
    hits = len(found)
    matches = sum(result.matches for result in found)
    n = max(1, len(keys))
    return ProbeStats(
        n_probes=len(keys),
        hits=hits,
        avg_latency=total_latency / n,
        false_reads_per_search=io.false_reads / n,
        data_reads_per_search=io.data_reads / n,
        index_reads_per_search=io.index_reads / n,
        total_matches=matches,
        io=io,
    )


@dataclass
class SweepPoint:
    """One (fpp, storage config) cell of a Figure-5/8-style sweep."""

    fpp: float
    config: str
    warm: bool
    avg_latency: float
    false_reads_per_search: float
    size_pages: int
    height: int


@dataclass
class SweepResult:
    """A full fpp x storage-config sweep, plus the baseline reference."""

    points: list[SweepPoint]
    baseline_latency: dict[str, float]       # config name -> B+-Tree latency
    baseline_size_pages: int
    baseline_height: int

    def latency(self, fpp: float, config: str) -> float:
        for point in self.points:
            if point.fpp == fpp and point.config == config:
                return point.avg_latency
        raise KeyError((fpp, config))

    def normalized_performance(self, fpp: float, config: str) -> float:
        """B+-Tree latency / BF-Tree latency (>1 means BF-Tree wins)."""
        return self.baseline_latency[config] / self.latency(fpp, config)

    def capacity_gain(self, fpp: float) -> float:
        """B+-Tree pages / BF-Tree pages at this fpp."""
        for point in self.points:
            if point.fpp == fpp:
                return self.baseline_size_pages / point.size_pages
        raise KeyError(fpp)

    @property
    def fpps(self) -> list[float]:
        seen: list[float] = []
        for point in self.points:
            if point.fpp not in seen:
                seen.append(point.fpp)
        return seen

    @property
    def configs(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.config not in seen:
                seen.append(point.config)
        return seen


def sweep_bf_tree(
    relation: Relation,
    column: str,
    probes: ProbeSet,
    fpps: Iterable[float],
    configs: Iterable[StorageConfig] = FIVE_CONFIGS,
    unique: bool = False,
    warm: bool = False,
    tree_factory: Callable[[float], BFTree] | None = None,
) -> SweepResult:
    """Measure BF-Trees across an fpp grid and storage configs (Fig 5/8).

    The B+-Tree baseline is measured once per config with the same probe
    set; its latency and size populate the normalized views used by the
    break-even analysis.
    """
    configs = list(configs)
    baseline = BPlusTree.bulk_load(relation, column, unique=unique)
    baseline_latency = {
        cfg.name: run_probes(baseline, probes, cfg, warm=warm).avg_latency
        for cfg in configs
    }
    points: list[SweepPoint] = []
    for fpp in fpps:
        if tree_factory is not None:
            tree = tree_factory(fpp)
        else:
            tree = BFTree.bulk_load(
                relation, column, BFTreeConfig(fpp=fpp), unique=unique
            )
        for cfg in configs:
            stats = run_probes(tree, probes, cfg, warm=warm)
            points.append(
                SweepPoint(
                    fpp=fpp,
                    config=cfg.name,
                    warm=warm,
                    avg_latency=stats.avg_latency,
                    false_reads_per_search=stats.false_reads_per_search,
                    size_pages=tree.size_pages,
                    height=tree.height,
                )
            )
    return SweepResult(
        points=points,
        baseline_latency=baseline_latency,
        baseline_size_pages=baseline.size_pages,
        baseline_height=baseline.height,
    )


DEFAULT_FPP_GRID = (0.2, 0.1, 0.02, 2e-3, 2e-4, 2e-6, 1e-8, 1e-12, 1e-15)
"""The fpp sweep of the paper's Figures 5 and 8 (0.2 down to 1e-15)."""


@dataclass
class ServiceReport:
    """Outcome of replaying one mixed trace through a sharded service."""

    n_ops: int
    n_shards: int
    config: str
    mix: str
    skew: str
    stats: ServiceStats
    results: list = field(repr=False, default_factory=list)

    @property
    def io(self) -> IOStats:
        return self.stats.io

    def latency(self, op: str | None = None) -> LatencySummary:
        return self.stats.latency_summary(op)

    def to_dict(self) -> dict:
        """JSON-able report (the serve-bench / scaling-benchmark payload)."""
        return {
            "config": self.config,
            "mix": self.mix,
            "skew": self.skew,
            **self.stats.to_dict(),
        }


def run_service(
    service: ShardedIndex,
    trace: MixedTrace,
    config: StorageConfig | str,
    warm: bool = False,
) -> ServiceReport:
    """Replay a mixed workload trace through a sharded index service.

    Binds every shard to a fresh storage stack of ``config``, routes the
    trace through a :class:`~repro.service.router.Router` (reads,
    inserts, deletes and scans batched per shard through each shard's
    ordered ``apply_many`` engine), and returns a :class:`ServiceReport` whose
    :class:`ServiceStats` carries merged IOStats, per-op latency
    percentiles, simulated makespan throughput (shards progress in
    parallel, so the service finishes with its slowest shard) and replay
    wall time.
    """
    service.bind(config, warm=warm)
    try:
        results, stats = Router(service).replay(trace)
    finally:
        service.unbind()
    return ServiceReport(
        n_ops=len(trace),
        n_shards=service.n_shards,
        config=config if isinstance(config, str) else config.name,
        mix=trace.mix.name,
        skew=trace.skew,
        stats=stats,
        results=results,
    )
