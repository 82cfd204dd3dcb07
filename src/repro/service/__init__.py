"""Sharded index service: the backend-agnostic partitioned serving layer.

The production-facing subsystem: a :class:`ShardedIndex` range-partitions
one indexed column across N independent shards (each with its own
device/IOStats/buffer-pool stack) under an epoch-versioned
:class:`RoutingTable`, a :class:`Router` splits mixed
read/insert/delete/scan batches into per-shard column batches (:class:`ShardBatch`) and replays
them through the :class:`SerialExecutor` (one ``apply_across`` call per
chunk for every shard's slice, one engine pass over all BF-Tree
shards) — the service's only batch path — and
:class:`ServiceStats` merges per-shard IOStats and folds per-op
simulated latencies into p50/p95/p99 summaries.

The topology is *dynamic*: ``split_shard``/``merge_shards`` reshape the
partition layout between replays (stable shard ids, epoch bumps), and the
:class:`Rebalancer` control loop drives them from windowed per-shard
load with hysteresis — see
:mod:`repro.service.routing` and :mod:`repro.service.rebalance`.

Everything here speaks the unified Index protocol (:mod:`repro.api`):
any registered backend serves — leaf-sliceable trees (BF, B+) are
range-partitioned, the rest run as a single-shard degenerate case —
with no backend-specific branches in the service code.
"""

from repro.service.executor import SerialExecutor, ShardBatch
from repro.service.rebalance import (
    ElasticReport,
    RebalanceDecision,
    RebalanceLog,
    Rebalancer,
    RebalancerConfig,
    run_elastic_service,
)
from repro.service.router import Router
from repro.service.routing import RouteEntry, RoutingTable
from repro.service.sharded import Shard, ShardedIndex
from repro.service.stats import (
    LatencySummary,
    LoadWindow,
    ServiceStats,
    WindowedLoad,
    queued_response_times,
)

__all__ = [
    "ElasticReport",
    "LatencySummary",
    "LoadWindow",
    "RebalanceDecision",
    "RebalanceLog",
    "Rebalancer",
    "RebalancerConfig",
    "RouteEntry",
    "Router",
    "RoutingTable",
    "SerialExecutor",
    "ServiceStats",
    "Shard",
    "ShardBatch",
    "ShardedIndex",
    "WindowedLoad",
    "queued_response_times",
    "run_elastic_service",
]
