"""Machine-speed calibration for wall-clock timings on shared cores.

On a machine shared with other tenants the same code runs up to ~2x
slower for seconds at a time, which swamps differences between two
versions of the program.  The benchmark therefore runs this fixed
reference kernel right after every timed interval: a pure-Python loop
plus small-array NumPy arithmetic — the two costs that dominate a
request — whose duration tracks the machine's speed at that moment.  A
timing is reported *at nominal speed*: scaled by ``NOMINAL_S`` over the
kernel's running median, i.e. what it would read on a machine where the
kernel takes ``NOMINAL_S``.  The kernel's data fits in a core's private
cache, so its time does not depend on what the program left in the
caches, and a change to the program moves the scaled time exactly as it
moves the raw one.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1e-3
SPAN_S = 0.1  # kernel runs up to this far on each side of a timing count


def kernel() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i
    words = np.arange(64, dtype=np.uint64)
    for _ in range(110):
        words = (words * np.uint64(0x9E3779B1)) ^ (words >> np.uint64(7))
    return time.perf_counter() - t0


def slowdowns(timings: list[float], kernel_times: list[float]) -> np.ndarray:
    """Per-timing slowdown: the median of the kernel runs within about
    ``SPAN_S`` on either side of each timing (kernel run ``i`` follows
    timing ``i``), over ``NOMINAL_S``."""
    times = np.asarray(kernel_times)
    step = float(np.median(np.asarray(timings) + times))
    w = max(2, int(SPAN_S / step))
    return np.array([
        np.median(times[max(0, i - w): i + w + 1])
        for i in range(len(times))
    ]) / NOMINAL_S
