"""Span tracing at the serving stack's layer boundaries, from outside.

The benchmark wraps the functions where one layer calls into the next
(nothing inside ``src/`` changes): each wrapped call records a span —
name, start, end, parent span, and the request it belongs to — and the
tracer keeps, per layer, its *self* time: the span's duration minus the
part covered by its child spans.  Self times of all layers add up to
the request's wall time.  Wrappers are installed only for ``--trace 1``
runs, so the end-to-end run executes the unmodified code.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import bf_leaf, bf_tree, bloom, hashing
from repro.persist import wal
from repro.service import executor, router
from repro.storage import buffer_pool, device

# (owner, attribute, layer).  Owners are classes, or modules whose global
# name is the call site another module resolves at call time.
BOUNDARIES: tuple[tuple[Any, str, str], ...] = (
    (router.Router, "replay", "merge"),
    (router.Router, "plan", "plan"),
    (executor.SerialExecutor, "run", "executor"),
    (bf_tree.BFTree, "search_many", "bftree"),
    (bf_tree.BFTree, "insert_many", "bftree"),
    (bf_tree.BFTree, "range_scan_many", "bftree"),
    (bf_tree.BFTree, "_descend_and_read", "descend"),
    (bf_tree.BFTree, "_charge_descent", "descend"),
    (bf_tree.BFTree, "_fetch_runs", "data_fetch"),
    (hashing, "bloom_positions_batch", "hash"),
    (bloom, "bloom_positions_batch", "hash"),
    (bf_leaf, "bloom_positions_batch", "hash"),
    (bf_leaf.BFLeaf, "_match_matrix", "filter_test"),
    (buffer_pool.BufferPool, "read_page", "charge"),
    (device.Device, "read_page", "charge"),
    (device.Device, "read_run", "charge"),
    (device.Device, "read_batch", "charge"),
    (wal.WriteAheadLog, "append", "wal_append"),
    (wal.WriteAheadLog, "sync", "wal_fsync"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b[2] for b in BOUNDARIES))


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.request = 0
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        # One row per span, columnar: request, parent, layer, start, end.
        self._cols = tuple(array("q") for _ in range(5))
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        layer_id = LAYERS.index(layer)
        self_ns, calls, stack = self.self_ns, self.calls, self._stack
        req, parent, name, start, end = self._cols
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            req.append(self.request)
            parent.append(stack[-1][0] if stack else -1)
            name.append(layer_id)
            frame = [idx, 0]
            stack.append(frame)
            end.append(0)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                duration = t1 - t0
                self_ns[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def install(self) -> None:
        for owner, attr, layer in BOUNDARIES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Dump every recorded span, one row per span."""
        req, parent, name, start, end = (np.frombuffer(c, dtype=np.int64)
                                         for c in self._cols)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(LAYERS), request=req,
                            parent=parent, layer=name, start_ns=start,
                            end_ns=end)
