"""Mixed read/write workloads with skewed key popularity (YCSB-style).

The paper's evaluation replays single-stream probe loops; a serving
layer needs the traffic a production index actually sees — concurrent
mixes of point reads, index inserts and small range scans whose key
popularity follows a Zipfian law.  This module generates such traffic as
*replayable seeded traces*: a :class:`MixedTrace` is plain NumPy arrays
(op codes, keys, insert and delete tuple ids, scan widths), so the same
seed always yields the same operation sequence, and the sharded service
and the unsharded index can replay identical work for apples-to-apples
comparison.

Key popularity follows the YCSB convention: ranks are drawn from a
Zipfian(theta) distribution over the column's distinct values and then
*scrambled* through a seeded permutation, so the hot set is spread across
the key domain instead of clustering at the smallest keys (which would
unrealistically favour one index leaf).

The **moving-hotspot** shape (``skew="hotspot"``) is the deliberate
exception: popularity is Zipfian in *distance* from a hot center that
drifts across the key domain in ``phases`` equal phases, and the ranks
are *not* scrambled — spatial locality is the point.  Each phase melts
the one shard owning the current center while the rest idle, which is
exactly the time-varying skew the elastic serving layer (split/merge +
rebalancer) exists to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Operation codes stored in MixedTrace.ops: the Index protocol's
# apply_many codes, so a trace op feeds the engines unchanged.
from repro.api.protocol import OP_DELETE as OP_DELETE
from repro.api.protocol import OP_INSERT as OP_INSERT
from repro.api.protocol import OP_READ as OP_READ
from repro.api.protocol import OP_SCAN as OP_SCAN
from repro.storage.relation import Relation
from repro.workloads.seeds import derive_seed

OP_NAMES = {OP_READ: "read", OP_INSERT: "insert", OP_SCAN: "scan",
            OP_DELETE: "delete"}


@dataclass(frozen=True)
class OperationMix:
    """Fractions of point reads, index inserts and range scans."""

    name: str
    read: float
    insert: float
    scan: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.insert + self.scan
        if any(f < 0 for f in (self.read, self.insert, self.scan)):
            raise ValueError(f"negative fraction in mix {self.name!r}")
        if not np.isclose(total, 1.0):
            raise ValueError(
                f"mix {self.name!r} fractions sum to {total}, expected 1.0"
            )

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (self.read, self.insert, self.scan)


#: The standard operation mixes of the service benchmarks, named after
#: their YCSB cousins: C (read-only), B (read-heavy), A (balanced),
#: load-style insert-heavy, and E-style scan mix.
MIXES: dict[str, OperationMix] = {
    "read_only": OperationMix("read_only", read=1.0, insert=0.0),
    "read_heavy": OperationMix("read_heavy", read=0.95, insert=0.05),
    "balanced": OperationMix("balanced", read=0.50, insert=0.50),
    "insert_heavy": OperationMix("insert_heavy", read=0.05, insert=0.95),
    "scan_mix": OperationMix("scan_mix", read=0.75, insert=0.05, scan=0.20),
}


class ZipfianGenerator:
    """Vectorized YCSB Zipfian rank generator over ``n`` items.

    Implements the classic Gray et al. quantile transform used by YCSB's
    ``ZipfianGenerator``: rank 0 is the most popular item and popularity
    decays as ``1 / rank^theta``.  ``theta`` must be in (0, 1); YCSB's
    default is 0.99 (heavily skewed: with n=10k, the top 1% of items
    draw roughly half the accesses).
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n < 1:
            raise ValueError("need at least one item")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zetan = float(np.sum(ranks**-theta))
        self._zeta2 = 1.0 + 0.5**theta
        self._alpha = 1.0 / (1.0 - theta)
        denominator = 1.0 - self._zeta2 / self._zetan
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta)) / denominator
            if denominator != 0.0
            else 0.0
        )

    def ranks(self, u: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) draws to Zipfian ranks in [0, n)."""
        u = np.asarray(u, dtype=np.float64)
        uz = u * self._zetan
        tail = (self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        tail = np.clip(tail.astype(np.int64), 0, self.n - 1)
        ranks = np.where(uz < 1.0, 0, np.where(uz < self._zeta2, 1, tail))
        return ranks.astype(np.int64)


@dataclass(frozen=True)
class MixedTrace:
    """A replayable, seeded sequence of mixed index operations.

    Arrays are parallel over operations: ``ops[i]`` is the op code,
    ``keys[i]`` the probe/insert/delete/scan-start key, ``tids[i]`` the
    tuple id an insert indexes or a delete removes (-1 for reads and
    scans, and for an untargeted delete; the page id is
    ``relation.page_of(tid)``) and ``scan_widths[i]`` the inclusive key
    width of a scan (0 for non-scans).  ``generate_trace`` emits no
    deletes; a trace that carries them is built from its arrays.
    Arrays of different lengths raise ``ValueError``, so a malformed
    trace cannot reach a replay.
    """

    ops: np.ndarray
    keys: np.ndarray
    tids: np.ndarray
    scan_widths: np.ndarray
    mix: OperationMix
    skew: str
    theta: float
    seed: int
    expected_hits: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self) -> None:
        columns = {"ops": self.ops, "keys": self.keys, "tids": self.tids,
                   "scan_widths": self.scan_widths}
        if self.expected_hits is not None:
            columns["expected_hits"] = self.expected_hits
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"trace columns must have one length, got {lengths}")

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def count(self, op_code: int) -> int:
        return int(np.count_nonzero(self.ops == op_code))

    @property
    def op_counts(self) -> dict[str, int]:
        return {name: self.count(code) for code, name in OP_NAMES.items()}

    def slice(self, start: int, stop: int | None = None) -> "MixedTrace":
        """A contiguous sub-trace over operations ``[start, stop)``.

        Replaying every window of a sliced trace in order is equivalent
        to replaying the whole trace once — the elastic control loop
        leans on this to interleave rebalance decisions between windows.
        """
        sl = slice(start, stop)
        return MixedTrace(
            ops=self.ops[sl],
            keys=self.keys[sl],
            tids=self.tids[sl],
            scan_widths=self.scan_widths[sl],
            mix=self.mix,
            skew=self.skew,
            theta=self.theta,
            seed=self.seed,
            expected_hits=(
                None if self.expected_hits is None
                else self.expected_hits[sl]
            ),
        )

    def iter_windows(self, window_ops: int) -> "Iterator[MixedTrace]":
        """Yield consecutive :meth:`slice` windows of ``window_ops`` ops."""
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        for start in range(0, len(self), window_ops):
            yield self.slice(start, start + window_ops)


def generate_trace(
    relation: Relation,
    column: str,
    mix: OperationMix | str = "read_heavy",
    n_ops: int = 1000,
    skew: str = "zipfian",
    theta: float = 0.99,
    seed: int | None = None,
    hit_rate: float = 1.0,
    max_scan_keys: int = 100,
    phases: int = 4,
    hotspot_width: float = 0.25,
) -> MixedTrace:
    """Generate a seeded mixed-workload trace against one indexed column.

    * Reads draw keys by popularity (``skew="zipfian"``, ``"uniform"``
      or ``"hotspot"``) from the column's distinct values; a
      ``hit_rate`` below 1.0 replaces the complement fraction with keys
      beyond the key domain (guaranteed misses, as in §6.4's hit-rate
      sweeps).
    * ``skew="hotspot"`` is the moving-hotspot shape: the trace is cut
      into ``phases`` equal phases; within phase ``p`` keys cluster
      around a hot center at position ``(p + 0.5) / phases`` of the
      distinct-value range, with Zipfian(theta)-distributed distance
      from the center spanning about ``hotspot_width`` of the domain.
      Unlike the other shapes the ranks are *not* scrambled — the hot
      set is a contiguous key region that drifts, concentrating load on
      one shard at a time.
    * Inserts re-index a popular key at its true data page — the only
      write the simulator's immutable relation admits, but one that
      exercises the full leaf write/split path.
    * Scans start at a popular key and span a uniform width of
      1..``max_scan_keys`` key values (YCSB-E convention).

    The same ``(relation, column, mix, n_ops, skew, theta, seed,
    hit_rate, max_scan_keys, phases, hotspot_width)`` tuple always
    produces the identical trace.
    """
    if isinstance(mix, str):
        try:
            mix = MIXES[mix]
        except KeyError:
            raise ValueError(
                f"unknown mix {mix!r}; pick from {sorted(MIXES)}"
            ) from None
    if skew not in ("zipfian", "uniform", "hotspot"):
        raise ValueError(
            f"skew must be 'zipfian', 'uniform' or 'hotspot', got {skew!r}"
        )
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError("hit_rate must be in [0, 1]")
    if n_ops < 1:
        raise ValueError("n_ops must be positive")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if not 0.0 < hotspot_width <= 1.0:
        raise ValueError("hotspot_width must be in (0, 1]")
    seed = derive_seed(None, "trace") if seed is None else seed
    rng = np.random.default_rng(seed)

    values = np.asarray(relation.columns[column])
    distinct = np.unique(values)
    n_distinct = len(distinct)

    # Operation schedule.
    ops = rng.choice(
        np.array([OP_READ, OP_INSERT, OP_SCAN], dtype=np.uint8),
        size=n_ops,
        p=mix.probabilities,
    ).astype(np.uint8)

    # Popularity-ranked key choice.  zipfian/uniform scramble the ranks
    # across the domain (YCSB convention); hotspot deliberately does
    # not — its popularity is Zipfian in *distance* from a drifting
    # center, so the hot set is spatially contiguous.
    u = rng.random(n_ops)
    if skew == "hotspot" and n_distinct > 1:
        window = max(1, int(round(hotspot_width * n_distinct)))
        # Zipfian rank = distance rank within the hot window; split it
        # into a magnitude and a seeded side so the hotspot is roughly
        # symmetric around the center.
        ranks = ZipfianGenerator(window, theta).ranks(u)
        signs = rng.choice(np.array([-1, 1], dtype=np.int64), size=n_ops)
        offsets = signs * ((ranks + 1) // 2)
        phase = (np.arange(n_ops, dtype=np.int64) * phases) // n_ops
        centers = (
            (phase.astype(np.float64) + 0.5) / phases * n_distinct
        ).astype(np.int64)
        pos = np.clip(centers + offsets, 0, n_distinct - 1)
        keys = distinct[pos].copy()
    else:
        if skew == "zipfian" and n_distinct > 1:
            ranks = ZipfianGenerator(n_distinct, theta).ranks(u)
        else:
            ranks = np.minimum((u * n_distinct).astype(np.int64),
                               n_distinct - 1)
        scramble = rng.permutation(n_distinct)
        keys = distinct[scramble[ranks]].copy()
    expected = np.ones(n_ops, dtype=bool)

    # Misses: only meaningful for reads; replace the requested fraction
    # with keys strictly beyond the domain.
    if hit_rate < 1.0:
        read_idx = np.nonzero(ops == OP_READ)[0]
        n_miss = int(round(len(read_idx) * (1.0 - hit_rate)))
        if n_miss:
            miss_idx = rng.choice(read_idx, size=n_miss, replace=False)
            hi = int(distinct.max())
            span = max(1, hi - int(distinct.min()))
            # Clamp the beyond-domain draws to the column's dtype max: a
            # key dtype near its max (int32/int16, or int64 itself)
            # would otherwise wrap ``hi + 1 + draw`` around to an
            # in-domain (or below-domain) value — a "guaranteed miss"
            # that may actually hit while ``expected_hits`` still says
            # miss.  The offsets are drawn *before* the add so the
            # clamp (``offset <= dtype_max - hi - 1``) keeps the sum
            # representable instead of overflowing first.
            offsets = rng.integers(0, span, size=n_miss)
            if np.issubdtype(keys.dtype, np.integer):
                dtype_max = int(np.iinfo(keys.dtype).max)
                if hi >= dtype_max:
                    raise ValueError(
                        f"column {column!r} reaches its dtype max "
                        f"({dtype_max}): no out-of-domain miss key is "
                        "representable; use hit_rate=1.0 or a wider "
                        "key dtype"
                    )
                offsets = np.minimum(offsets, min(dtype_max - hi - 1, span))
            keys[miss_idx] = (hi + 1 + offsets).astype(keys.dtype)
            expected[miss_idx] = False

    # Insert targets: the first tuple actually holding the key (ordered
    # column => searchsorted finds the first occurrence).
    tids = np.full(n_ops, -1, dtype=np.int64)
    ins_idx = np.nonzero(ops == OP_INSERT)[0]
    if len(ins_idx):
        first_tid = np.searchsorted(values, keys[ins_idx], side="left")
        tids[ins_idx] = np.minimum(first_tid, relation.ntuples - 1)

    # Scan widths (inclusive key span), YCSB-E style uniform short scans.
    widths = np.zeros(n_ops, dtype=np.int64)
    scan_idx = np.nonzero(ops == OP_SCAN)[0]
    if len(scan_idx):
        widths[scan_idx] = rng.integers(
            1, max(2, max_scan_keys + 1), size=len(scan_idx)
        )

    return MixedTrace(
        ops=ops,
        keys=keys,
        tids=tids,
        scan_widths=widths,
        mix=mix,
        skew=skew,
        theta=theta,
        seed=seed,
        expected_hits=expected,
    )
