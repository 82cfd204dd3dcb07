"""Batch-probe engine: wall-clock speedup of ``search_many`` vs per-key probes.

Not a paper figure — this benchmark validates the vectorized batch-probe
engine that makes every *other* figure benchmark faster to run.  It
replays 10k point probes against one BF-Tree twice, once as a per-key
``search`` loop (each call a batch of one) and once as a single
``search_many`` batch, and checks the engine's contract:

* the two replays produce **bit-identical** ``SearchResult`` lists and
  ``IOStats`` counters (simulated clock equal up to float summation
  order);
* the single batch is at least **5x** faster in interpreter wall-clock
  than the per-key loop: what batching buys over probing key by key.

The measured numbers are emitted as a JSON blob (alongside the usual
table) so CI can track the speedup over time.
"""

from __future__ import annotations

import json
import math
import time

from benchmarks.conftest import SYNTH_TUPLES
from repro.core import BFTree, BFTreeConfig
from repro.harness import format_table
from repro.storage import build_stack
from repro.workloads import point_probes

N_BATCH_PROBES = 10_000
MIN_SPEEDUP = 5.0


def _replay(tree, keys, batch: bool):
    """One replay on a fresh MEM/SSD stack; returns (results, io, clock, secs)."""
    stack = build_stack("MEM/SSD")
    tree.bind(stack)
    try:
        t0 = time.perf_counter()
        if batch:
            results = tree.search_many(keys)
        else:
            results = [tree.search(key) for key in keys]
        wall_secs = time.perf_counter() - t0
    finally:
        tree.unbind()
    return results, stack.stats.snapshot(), stack.elapsed(), wall_secs


def _measure(relation):
    tree = BFTree.bulk_load(
        relation, "pk", BFTreeConfig(fpp=1e-3), unique=True
    )
    probes = point_probes(relation, "pk", N_BATCH_PROBES, hit_rate=0.9)
    keys = [key.item() for key in probes.keys]
    per_key, io_per_key, clock_per_key, per_key_secs = _replay(tree, keys,
                                                                False)
    batch, io_batch, clock_batch, batch_secs = _replay(tree, keys, True)
    return {
        "n_probes": len(keys),
        "tuples": relation.ntuples,
        "fpp": tree.config.fpp,
        "per_key_secs": per_key_secs,
        "batch_secs": batch_secs,
        "speedup": per_key_secs / batch_secs,
        "results_identical": per_key == batch,
        "iostats_identical": io_per_key == io_batch,
        "clock_close": math.isclose(
            clock_per_key, clock_batch, rel_tol=1e-9
        ),
        "simulated_clock_secs": clock_per_key,
    }


def test_batch_probe_speedup(benchmark, emit, synth_relation):
    report = benchmark.pedantic(
        _measure, args=(synth_relation,), rounds=1, iterations=1,
    )
    emit(format_table(
        ["metric", "value"],
        [[k, f"{v:.4g}" if isinstance(v, float) else str(v)]
         for k, v in report.items()],
        title=f"Batch-probe engine: search_many vs per-key search "
              f"({N_BATCH_PROBES} probes, {SYNTH_TUPLES} tuples)",
    ))
    emit("bench_batch_probe JSON: " + json.dumps(report))

    assert report["results_identical"], (
        "one batch diverged from per-key batches of one")
    assert report["iostats_identical"], "IOStats diverged between replays"
    assert report["clock_close"], "simulated clock diverged between replays"
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"one batch only {report['speedup']:.1f}x faster than the "
        f"per-key loop (contract: >= {MIN_SPEEDUP}x)"
    )
