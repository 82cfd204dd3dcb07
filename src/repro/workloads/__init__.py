"""Workload generators: synthetic relation R, TPCH lineitem dates, SHD,
plus the mixed read/write service traces and unified seed plumbing."""

from repro.workloads import mixed, shd, synthetic, tpch
from repro.workloads.mixed import (
    MIXES,
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_SCAN,
    MixedTrace,
    OperationMix,
    ZipfianGenerator,
    generate_trace,
)
from repro.workloads.queries import (
    FIGURE13_FRACTIONS,
    ProbeSet,
    RangeQuery,
    point_probes,
    range_queries,
)
from repro.workloads.seeds import DEFAULT_SEEDS, derive_seed

__all__ = [
    "mixed",
    "shd",
    "synthetic",
    "tpch",
    "MIXES",
    "OP_DELETE",
    "OP_INSERT",
    "OP_READ",
    "OP_SCAN",
    "MixedTrace",
    "OperationMix",
    "ZipfianGenerator",
    "generate_trace",
    "FIGURE13_FRACTIONS",
    "ProbeSet",
    "RangeQuery",
    "point_probes",
    "range_queries",
    "DEFAULT_SEEDS",
    "derive_seed",
]
