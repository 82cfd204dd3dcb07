"""Simulated clock: deterministic virtual time for the storage stack.

The paper's evaluation reports wall-clock response times measured on real
HDD/SSD hardware.  Our substrate is a simulator, so every component that
would spend time on a real machine (device I/O, Bloom-filter probes, key
comparisons) instead *charges* a shared :class:`SimulatedClock`.  Experiments
read the clock before and after an operation to obtain its simulated
latency.  Because the clock is deterministic, experiment output is exactly
reproducible run-to-run.
"""

from __future__ import annotations


class SimulatedClock:
    """Accumulates virtual elapsed time, in seconds.

    The clock only moves forward.  Components call :meth:`advance` with the
    cost of the work they just performed; measurement code brackets an
    operation with :meth:`now` calls.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """Return current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot move clock backwards ({seconds} s)")
        self._now += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.9f}s)"


# CPU cost constants (seconds).  These are small relative to any device I/O
# and only matter for the in-memory storage configurations, where the paper
# compares BF-Tree probes against hash-index and memory-resident B+-Tree
# probes.  Values approximate a ~2.7 GHz core of the paper's testbed.
CPU_KEY_COMPARE = 20e-9          # one key comparison during binary search
# Probing one Bloom filter costs k hashed bit reads, but a negative test
# exits after ~2 reads on average (each set with probability ~fill), so
# the expected per-filter cost is a couple of cache-resident reads.
CPU_BLOOM_PROBE = 25e-9
CPU_BLOOM_INSERT = 60e-9         # insert one key into a Bloom filter
CPU_HASH_PROBE = 250e-9          # one hash-table lookup
CPU_TUPLE_SCAN = 25e-9           # inspect one tuple inside a fetched page
