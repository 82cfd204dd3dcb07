"""Service-level statistics: merged IOStats, tail latency, windowed load.

A sharded service runs N independent storage stacks; explaining its
behaviour needs views the single-index harness never produced:

* the **merged I/O picture** — per-shard :class:`IOStats` summed into
  one counter block (identical to an unsharded stack's counters when the
  shards partition the work, which the service guarantees for point
  operations);
* **tail latency** — per-operation simulated latencies folded into
  p50/p95/p99 summaries, the metric a serving system is actually judged
  by (a mean hides the HDD seek that every 100th probe eats);
* **windowed load** — per-shard ops and simulated-clock shares over
  fixed-size trace windows (:class:`LoadWindow`), keyed by *stable shard
  id* so the series stays meaningful across routing-table epoch bumps;
  this is what the :class:`~repro.service.rebalance.Rebalancer` watches;
* **queueing tail** — :func:`queued_response_times` turns per-op service
  times into open-loop FIFO response times.  Per-op simulated latency is
  load-independent (a shard's simulated time only grows while it serves),
  so a melted hot shard shows up in *queue delay*, not in service time —
  exactly the signal a p99 SLO sees in a real system.

Simulated *throughput* is defined by the service's makespan: shards own
independent device stacks and progress concurrently, so the service
completes a trace when its slowest shard does, and throughput is
``n_ops / max(per-shard clock)``, where a shard's clock is its IOStats
delta priced by its stack.  The per-shard clocks also expose the
load-balance ratio (max/mean), which quantifies how much a skewed key
popularity concentrates work on the hot shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

import numpy as np

from repro.storage.iostats import IOStats
from repro.workloads.mixed import OP_NAMES


@dataclass(frozen=True)
class LatencySummary:
    """Percentile digest of one latency population (simulated seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencySummary":
        arr = np.asarray(latencies, dtype=np.float64)
        if arr.size == 0:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        p50, p95, p99 = np.percentile(arr, (50, 95, 99))
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(arr.max()),
        )

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ServiceStats:
    """Aggregate outcome of replaying one trace through a sharded service.

    Holds the per-shard IOStats deltas, their priced simulated seconds
    (``per_shard_clock``) and the per-operation latency array (aligned
    with the trace), and derives
    the merged counters, percentile summaries and throughput from them.

    ``shard_ids`` (when present) aligns the per-shard lists with stable
    routing-table shard ids.
    """

    def __init__(
        self,
        per_shard_io: list[IOStats],
        per_shard_clock: list[float],
        op_codes: np.ndarray,
        op_latencies: np.ndarray,
        wall_secs: float,
        shard_ids: list[int] | None = None,
        epoch: int | None = None,
    ) -> None:
        self.per_shard_io = per_shard_io
        self.per_shard_clock = per_shard_clock
        self.op_codes = np.asarray(op_codes)
        self.op_latencies = np.asarray(op_latencies, dtype=np.float64)
        self.wall_secs = wall_secs
        self.shard_ids = shard_ids
        self.epoch = epoch

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.per_shard_io)

    @property
    def n_ops(self) -> int:
        return int(self.op_codes.size)

    @property
    def io(self) -> IOStats:
        """All shards' counters summed into one block."""
        total = IOStats()
        for stats in self.per_shard_io:
            total = total + stats
        return total

    @property
    def makespan(self) -> float:
        """Simulated completion time: the slowest shard's clock."""
        return max(self.per_shard_clock) if self.per_shard_clock else 0.0

    @property
    def total_sim_seconds(self) -> float:
        """Total simulated device/CPU time across all shards."""
        return float(sum(self.per_shard_clock))

    @property
    def load_balance(self) -> float:
        """Max/mean live-shard clock — 1.0 is perfectly balanced."""
        if not self.per_shard_clock:
            return 1.0
        mean = float(sum(self.per_shard_clock)) / len(self.per_shard_clock)
        return self.makespan / mean if mean > 0 else 1.0

    # ------------------------------------------------------------------
    def latencies_for(self, op_name: str | None = None) -> np.ndarray:
        """Per-op latencies, optionally restricted to one op type."""
        if op_name is None:
            return self.op_latencies
        codes = [c for c, n in OP_NAMES.items() if n == op_name]
        if not codes:
            raise ValueError(
                f"unknown op {op_name!r}; known: {sorted(OP_NAMES.values())}"
            )
        result: np.ndarray = self.op_latencies[self.op_codes == codes[0]]
        return result

    def latency_summary(self, op_name: str | None = None) -> LatencySummary:
        return LatencySummary.from_latencies(self.latencies_for(op_name))

    # ------------------------------------------------------------------
    def throughput(self) -> float:
        """Operations per simulated second at service level (makespan)."""
        span = self.makespan
        return self.n_ops / span if span > 0 else float("inf")

    def wall_throughput(self) -> float:
        """Operations per wall-clock second of the replay itself."""
        return self.n_ops / self.wall_secs if self.wall_secs > 0 else float("inf")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able digest (used by serve-bench and the benchmarks)."""
        per_op = {
            name: self.latency_summary(name).to_dict()
            for code, name in OP_NAMES.items()
            if np.any(self.op_codes == code)
        }
        io = self.io
        doc: dict[str, Any] = {
            "n_shards": self.n_shards,
            "n_ops": self.n_ops,
            "latency": {
                "overall": self.latency_summary().to_dict(),
                **per_op,
            },
            "throughput_ops_per_sim_sec": self.throughput(),
            "throughput_ops_per_wall_sec": self.wall_throughput(),
            "makespan_sim_secs": self.makespan,
            "total_sim_secs": self.total_sim_seconds,
            "load_balance": self.load_balance,
            "wall_secs": self.wall_secs,
            "per_shard_sim_secs": list(self.per_shard_clock),
            "io": {f.name: getattr(io, f.name) for f in fields(io)},
        }
        if self.shard_ids is not None:
            doc["shard_ids"] = list(self.shard_ids)
        if self.epoch is not None:
            doc["epoch"] = self.epoch
        return doc


# ---------------------------------------------------------------------------
# windowed load accounting (what the Rebalancer watches)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadWindow:
    """Per-shard load over one fixed-size slice of a replayed trace.

    Keys are *stable shard ids* (routing-table names), so consecutive
    windows remain comparable across topology epochs: a split's children
    simply appear under fresh ids while the parent's series ends.
    """

    index: int                      # window ordinal within the replay
    epoch: int                      # routing-table epoch when replayed
    ops: Mapping[int, int]          # shard id -> ops routed to it
    clock: Mapping[int, float]      # shard id -> sim-clock advance
    #: shard id -> median key of the ops routed to it this window — the
    #: load centroid a split should cut at (half the observed traffic
    #: lands on each child), rather than the leaf-count midpoint.
    split_hints: Mapping[int, Any] = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.clock)

    @property
    def total_ops(self) -> int:
        return int(sum(self.ops.values()))

    @property
    def total_clock(self) -> float:
        return float(sum(self.clock.values()))

    def clock_share(self, shard_id: int) -> float:
        """Fraction of this window's simulated time spent on one shard."""
        total = self.total_clock
        if total <= 0.0:
            return 0.0
        return float(self.clock.get(shard_id, 0.0)) / total

    @property
    def load_balance(self) -> float:
        """Max/mean shard clock within the window (1.0 = balanced)."""
        if not self.clock:
            return 1.0
        values = [float(v) for v in self.clock.values()]
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0 else 1.0

    def hottest(self) -> tuple[int, float]:
        """(shard id, clock share) of the window's hottest shard."""
        if not self.clock:
            raise ValueError("empty load window has no hottest shard")
        sid = min(self.clock, key=lambda s: (-float(self.clock[s]), s))
        return sid, self.clock_share(sid)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "epoch": self.epoch,
            "ops": {str(k): int(v) for k, v in self.ops.items()},
            "clock": {str(k): float(v) for k, v in self.clock.items()},
            "load_balance": self.load_balance,
        }


class WindowedLoad:
    """Accumulates :class:`LoadWindow` records across one elastic replay."""

    def __init__(self) -> None:
        self.windows: list[LoadWindow] = []

    def record(self, window: LoadWindow) -> None:
        self.windows.append(window)

    def __len__(self) -> int:
        return len(self.windows)

    def mean_load_balance(self) -> float:
        """Mean per-window max/mean clock ratio over non-empty windows."""
        active = [w.load_balance for w in self.windows if w.total_clock > 0]
        return float(np.mean(active)) if active else 1.0

    def worst_load_balance(self) -> float:
        active = [w.load_balance for w in self.windows if w.total_clock > 0]
        return max(active) if active else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_windows": len(self.windows),
            "mean_load_balance": self.mean_load_balance(),
            "worst_load_balance": self.worst_load_balance(),
            "windows": [w.to_dict() for w in self.windows],
        }


# ---------------------------------------------------------------------------
# open-loop queueing model
# ---------------------------------------------------------------------------


def queued_response_times(
    owners: Sequence[int],
    service_times: Sequence[float],
    arrival_rate: float,
) -> np.ndarray:
    """Open-loop FIFO response times per operation.

    Operation ``i`` arrives at ``i / arrival_rate`` (a fixed-rate open
    arrival process over the whole trace) and is served FIFO by its
    owning shard (``owners[i]``, stable shard ids) for ``service_times
    [i]`` simulated seconds; shards serve in parallel but one op at a
    time.  The returned response time is queue wait plus service time —
    the quantity a latency SLO measures.  A shard whose offered load
    exceeds its service rate builds an unbounded queue, which is exactly
    how a melted hot shard destroys p99 even though each individual op's
    service time is unchanged.
    """
    if arrival_rate <= 0.0:
        raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
    owner_arr = np.asarray(owners, dtype=np.int64)
    svc = np.asarray(service_times, dtype=np.float64)
    if owner_arr.shape != svc.shape:
        raise ValueError(
            f"owners ({owner_arr.shape}) and service_times ({svc.shape}) "
            "must align"
        )
    free: dict[int, float] = {}
    out = np.empty(svc.size, dtype=np.float64)
    for i in range(svc.size):
        arrive = i / arrival_rate
        sid = int(owner_arr[i])
        start = max(arrive, free.get(sid, 0.0))
        done = start + float(svc[i])
        free[sid] = done
        out[i] = done - arrive
    return out
