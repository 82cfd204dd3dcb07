"""Hot-shard rebalancing: a hysteresis control loop over windowed load.

A static partition melts under time-varying skew: the one shard owning
the current hotspot saturates while its neighbours idle.  The
:class:`Rebalancer` watches per-window shard load
(:class:`~repro.service.stats.LoadWindow`, keyed by stable shard id) and
steers the service's live topology operations:

* **split** a shard whose clock share has exceeded ``hot_factor / n``
  (n = live shard count) for ``sustain`` consecutive windows — spreading
  the hot key range over two fresh stacks;
* **merge** the adjacent pair with the smallest combined share once it
  has stayed under ``cold_factor * 2 / n`` for ``sustain`` windows —
  reclaiming shards the hotspot has moved away from;
* after any action, hold off for ``cooldown`` windows and reset all
  streaks (hysteresis: one decision must prove itself before the next).

Thresholds are *relative* to the live shard count, so the same config
behaves sensibly at 4 shards and at 12.  At most one topology action
fires per window, and every decision is recorded in the
:class:`RebalanceLog` that ``serve-bench --rebalance`` and
``benchmarks/bench_rebalance.py`` surface.

:func:`run_elastic_service` is the driving loop: it replays a trace in
fixed-size windows through one :class:`~repro.service.router.Router`,
feeds each window's load to the rebalancer *between* windows (the
Router buffers nothing across replays), and collects per-op results,
latencies and stable owner ids for the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.service.router import Router
from repro.service.sharded import MIN_SPLIT_LEAVES, ShardedIndex
from repro.service.stats import (
    LatencySummary,
    LoadWindow,
    WindowedLoad,
    queued_response_times,
)
from repro.storage.config import StorageConfig
from repro.storage.iostats import IOStats
from repro.workloads.mixed import MixedTrace


@dataclass(frozen=True)
class RebalancerConfig:
    """Knobs of the hysteresis control loop (relative thresholds)."""

    hot_factor: float = 1.7     # hot when share > hot_factor / n_live
    cold_factor: float = 0.6    # pair cold when sum < cold_factor * 2 / n
    sustain: int = 2            # consecutive windows before acting
    cooldown: int = 2           # quiet windows after any action
    min_shards: int = 2         # never merge below this
    max_shards: int = 16        # never split above this

    def __post_init__(self) -> None:
        if self.hot_factor <= 1.0:
            raise ValueError("hot_factor must be > 1 (share of fair load)")
        if not 0.0 < self.cold_factor < 1.0:
            raise ValueError("cold_factor must be in (0, 1)")
        if self.sustain < 1:
            raise ValueError("sustain must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")


@dataclass(frozen=True)
class RebalanceDecision:
    """One applied topology action, as recorded in the log."""

    window: int                 # window ordinal that triggered it
    epoch: int                  # routing-table epoch *after* the action
    action: str                 # "split" | "merge"
    source: tuple[int, ...]     # shard ids consumed
    result: tuple[int, ...]     # shard ids produced
    share: float                # observed clock share motivating it

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "epoch": self.epoch,
            "action": self.action,
            "source": list(self.source),
            "result": list(self.result),
            "share": self.share,
        }


class RebalanceLog:
    """Append-only record of every topology decision of one run."""

    def __init__(self) -> None:
        self.decisions: list[RebalanceDecision] = []

    def append(self, decision: RebalanceDecision) -> None:
        self.decisions.append(decision)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[RebalanceDecision]:
        return iter(self.decisions)

    @property
    def n_splits(self) -> int:
        return sum(1 for d in self.decisions if d.action == "split")

    @property
    def n_merges(self) -> int:
        return sum(1 for d in self.decisions if d.action == "merge")

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_splits": self.n_splits,
            "n_merges": self.n_merges,
            "decisions": [d.to_dict() for d in self.decisions],
        }


class Rebalancer:
    """Watches windowed load and applies split/merge with hysteresis."""

    def __init__(self, service: ShardedIndex,
                 config: RebalancerConfig | None = None) -> None:
        self.service = service
        self.config = RebalancerConfig() if config is None else config
        self.log = RebalanceLog()
        self._hot_streak: dict[int, int] = {}
        self._cold_streak: dict[tuple[int, int], int] = {}
        self._cooldown = 0

    # ------------------------------------------------------------------
    def observe(self, window: LoadWindow) -> list[RebalanceDecision]:
        """Fold one load window into the streaks; maybe act.

        Call between replay windows.  Applies at most one topology
        action and returns the decisions made (possibly empty).
        """
        cfg = self.config
        if self._cooldown > 0:
            self._cooldown -= 1
            self._hot_streak.clear()
            self._cold_streak.clear()
            return []
        if window.total_clock <= 0.0:
            return []
        order = self.service.table.shard_ids
        n = len(order)
        shares = {sid: window.clock_share(sid) for sid in order}

        decision = self._try_split(window, order, shares, n)
        if decision is None:
            decision = self._try_merge(window, order, shares, n)
        if decision is None:
            return []
        self.log.append(decision)
        self._hot_streak.clear()
        self._cold_streak.clear()
        self._cooldown = cfg.cooldown
        return [decision]

    # ------------------------------------------------------------------
    def _splittable(self, sid: int) -> bool:
        shard = self.service.shard_by_id(sid)
        if shard is None or not shard.index.supports_sharding:
            return False
        return shard.index.n_leaves >= MIN_SPLIT_LEAVES

    def _mergeable(self, sid_a: int, sid_b: int) -> bool:
        a = self.service.shard_by_id(sid_a)
        b = self.service.shard_by_id(sid_b)
        return (
            a is not None and b is not None
            and a.index.supports_sharding and b.index.supports_sharding
        )

    def _try_split(self, window: LoadWindow, order: list[int],
                   shares: dict[int, float],
                   n: int) -> RebalanceDecision | None:
        cfg = self.config
        threshold = cfg.hot_factor / n
        streaks = {
            sid: self._hot_streak.get(sid, 0) + 1
            for sid in order if shares[sid] > threshold
        }
        self._hot_streak = streaks
        if n >= cfg.max_shards:
            return None
        candidate: int | None = None
        for sid in order:
            if streaks.get(sid, 0) >= cfg.sustain and self._splittable(sid):
                if candidate is None or shares[sid] > shares[candidate]:
                    candidate = sid
        if candidate is None:
            return None
        # Cut at the window's observed load centroid when known (half
        # the hot traffic on each child); fall back to the leaf midpoint.
        left, right = self.service.split_shard(
            candidate, at=window.split_hints.get(candidate)
        )
        return RebalanceDecision(
            window=window.index,
            epoch=self.service.topology_epoch,
            action="split",
            source=(candidate,),
            result=(left, right),
            share=shares[candidate],
        )

    def _try_merge(self, window: LoadWindow, order: list[int],
                   shares: dict[int, float],
                   n: int) -> RebalanceDecision | None:
        cfg = self.config
        threshold = cfg.cold_factor * 2.0 / n
        streaks = {}
        for a, b in zip(order, order[1:]):
            if shares[a] + shares[b] < threshold:
                streaks[(a, b)] = self._cold_streak.get((a, b), 0) + 1
        self._cold_streak = streaks
        if n <= cfg.min_shards:
            return None
        pair: tuple[int, int] | None = None
        for (a, b), streak in streaks.items():
            if streak >= cfg.sustain and self._mergeable(a, b):
                if pair is None or (
                    shares[a] + shares[b] < shares[pair[0]] + shares[pair[1]]
                ):
                    pair = (a, b)
        if pair is None:
            return None
        merged = self.service.merge_shards(*pair)
        return RebalanceDecision(
            window=window.index,
            epoch=self.service.topology_epoch,
            action="merge",
            source=pair,
            result=(merged,),
            share=shares[pair[0]] + shares[pair[1]],
        )


# ---------------------------------------------------------------------------
# elastic replay loop
# ---------------------------------------------------------------------------


@dataclass
class ElasticReport:
    """Outcome of one windowed (optionally rebalancing) trace replay."""

    results: list[Any]
    op_codes: np.ndarray
    op_latencies: np.ndarray
    owners: np.ndarray              # stable shard id per op, at dispatch
    windows: WindowedLoad
    log: RebalanceLog
    io: IOStats
    wall_secs: float
    window_ops: int
    initial_shards: int
    final_shards: int
    final_epoch: int

    @property
    def n_ops(self) -> int:
        return int(self.op_codes.size)

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.from_latencies(self.op_latencies)

    def queued_latency_summary(self, arrival_rate: float) -> LatencySummary:
        """Open-loop queueing tail at a fixed arrival rate (ops per
        simulated second) — see
        :func:`~repro.service.stats.queued_response_times`."""
        return LatencySummary.from_latencies(
            queued_response_times(self.owners, self.op_latencies,
                                  arrival_rate)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_ops": self.n_ops,
            "window_ops": self.window_ops,
            "initial_shards": self.initial_shards,
            "final_shards": self.final_shards,
            "final_epoch": self.final_epoch,
            "latency": self.latency_summary().to_dict(),
            "load": self.windows.to_dict(),
            "rebalance": self.log.to_dict(),
            "wall_secs": self.wall_secs,
            "io": self.io.snapshot().__dict__,
        }


def run_elastic_service(
    service: ShardedIndex,
    trace: MixedTrace,
    config: StorageConfig | str,
    *,
    rebalancer: Rebalancer | None = None,
    window_ops: int = 512,
    warm: bool = False,
) -> ElasticReport:
    """Replay ``trace`` in windows, letting ``rebalancer`` (if given)
    reshape the topology between windows.

    With ``rebalancer=None`` this is a windowed replay over a static
    topology — the control it is benchmarked against.  Results are
    per-op and aligned with the trace, exactly as
    :meth:`Router.replay` returns them.
    """
    service.bind(config, warm=warm)
    router = Router(service)
    initial_shards = service.n_shards
    windows = WindowedLoad()
    log = rebalancer.log if rebalancer is not None else RebalanceLog()
    results: list[Any] = []
    latency_parts: list[np.ndarray] = []
    owner_parts: list[np.ndarray] = []
    t0 = time.perf_counter()
    try:
        for w, chunk in enumerate(trace.iter_windows(window_ops)):
            # Owners resolved to stable ids at this window's epoch (scan
            # owners = the shard owning the scan's start key).
            owner_parts.append(service.table.route_ids(chunk.keys))
            chunk_results, stats = router.replay(chunk)
            results.extend(chunk_results)
            latency_parts.append(stats.op_latencies)
            assert stats.shard_ids is not None
            ids = owner_parts[-1]
            ops_by_shard = {
                int(sid): int(count)
                for sid, count in zip(*np.unique(ids, return_counts=True))
            }
            hints = {
                sid: np.median(np.asarray(chunk.keys)[ids == sid])
                for sid in ops_by_shard
            }
            window = LoadWindow(
                index=w,
                epoch=stats.epoch if stats.epoch is not None else 0,
                ops=ops_by_shard,
                clock=dict(zip(stats.shard_ids, stats.per_shard_clock)),
                split_hints=hints,
            )
            windows.record(window)
            if rebalancer is not None:
                rebalancer.observe(window)
        wall_secs = time.perf_counter() - t0
        report = ElasticReport(
            results=results,
            op_codes=trace.ops,
            op_latencies=(
                np.concatenate(latency_parts) if latency_parts
                else np.zeros(0, dtype=np.float64)
            ),
            owners=(
                np.concatenate(owner_parts) if owner_parts
                else np.zeros(0, dtype=np.int64)
            ),
            windows=windows,
            log=log,
            io=service.merged_io(),
            wall_secs=wall_secs,
            window_ops=window_ops,
            initial_shards=initial_shards,
            final_shards=service.n_shards,
            final_epoch=service.topology_epoch,
        )
        return report
    finally:
        service.unbind()
