"""Experiment harness: probe runner, fpp sweeps, break-even analysis."""

from repro.harness.breakeven import (
    BreakEvenCurve,
    break_even_curves,
    break_even_table,
)
from repro.harness.experiment import (
    DEFAULT_FPP_GRID,
    ProbeStats,
    ServiceReport,
    SweepPoint,
    SweepResult,
    run_probes,
    run_service,
    sweep_bf_tree,
)
from repro.harness.results import format_series, format_table, us

__all__ = [
    "BreakEvenCurve",
    "break_even_curves",
    "break_even_table",
    "DEFAULT_FPP_GRID",
    "ProbeStats",
    "ServiceReport",
    "SweepPoint",
    "SweepResult",
    "run_probes",
    "run_service",
    "sweep_bf_tree",
    "format_series",
    "format_table",
    "us",
]
