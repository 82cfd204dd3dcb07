"""Canonical result types of the unified :class:`~repro.api.Index` protocol.

Every backend — the BF-Tree and all baselines — returns these from the
protocol operations, so harnesses, the sharded service and the CLI can
consume any backend's output without per-kind branching:

* :class:`SearchResult` from ``search`` / ``search_many``,
* :class:`RangeScanResult` from ``range_scan`` / ``range_scan_many``,
* :class:`DeleteOutcome` from ``delete`` / ``delete_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np


def as_scalar(value: Any) -> Any:
    """Normalize a NumPy scalar (or 0-d array) to its native Python value.

    The one shared helper every public entry point funnels keys and scan
    bounds through — reprolint's scalar-leak rule forbids re-deriving it
    with ad-hoc ``hasattr(x, "item")`` probes.  Non-NumPy values pass
    through untouched.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    return value


def as_scalars(values: Iterable[Any]) -> list[Any]:
    """:func:`as_scalar` over a batch, as a new list.

    The common batch holds no NumPy value at all (keys that came through
    ``ndarray.tolist()`` or from Python code); one ``set(map(type, ...))``
    pass proves that at C speed, and only a batch holding a NumPy scalar
    or array pays the per-value call.
    """
    batch = list(values)
    if any(issubclass(t, (np.generic, np.ndarray))
           for t in set(map(type, batch))):
        return [as_scalar(v) for v in batch]
    return batch


@dataclass
class SearchResult:
    """Outcome of one point probe."""

    found: bool
    matches: int = 0
    pages_read: int = 0
    false_pages: int = 0
    tids: list[int] = field(default_factory=list)

    @classmethod
    def fetched(cls, tids: list[int], pages_read: int) -> SearchResult:
        """An exact index's rid fetch: found when ``tids`` is non-empty."""
        return cls(found=bool(tids), matches=len(tids),
                   pages_read=pages_read, tids=tids)


@dataclass
class RangeScanResult:
    """Outcome of one range scan."""

    matches: int
    pages_read: int
    leaves_visited: int


@dataclass(frozen=True)
class DeleteOutcome:
    """Outcome of one index delete (truthy when the key was removed).

    ``tombstoned`` records the *mechanism*: True when the delete was
    realized as a logical tombstone the index must filter on later reads
    (BF-Tree plain filters, the FD-Tree's logarithmic deletes, a
    counting BF-Tree without a ``pid``) rather than a physical removal —
    the distinction §7's fpp accounting cares about, since tombstones
    and in-place removal degrade a filter differently.
    """

    removed: bool
    tombstoned: bool = False

    def __bool__(self) -> bool:
        return self.removed


def normalize_scan_windows(windows: Iterable[tuple[Any, Any]]
                           ) -> list[tuple[Any, Any]]:
    """Canonicalize a batch of ``(lo, hi)`` scan windows.

    NumPy scalars are unwrapped to Python values (one :func:`as_scalars`
    pass per bound column) and every window is validated (``lo > hi``
    raises, with the scalar paths' message) before any I/O is charged —
    shared by every ``range_scan_many`` engine and the sharded scan
    planner.
    """
    pairs = list(windows)
    wins = list(zip(as_scalars([lo for lo, _ in pairs]),
                    as_scalars([hi for _, hi in pairs])))
    for lo, hi in wins:
        if lo > hi:
            raise ValueError(f"empty range: lo={lo} > hi={hi}")
    return wins
