"""Page-based relation: the main data file the indexes point into.

A :class:`Relation` holds fixed-size tuples in 4 KB pages, mirroring the
paper's synthetic relation R (256-byte tuples) and the TPCH lineitem table
(200-byte tuples).  Column values are stored as NumPy arrays; the byte
layout is never materialized, but all geometry (tuples per page, page
count) follows the declared ``tuple_size`` so that index size formulas and
I/O counts match the paper.

Pages are not materialized either: a page is the tid range
:meth:`Relation.page_bounds` returns, and readers slice the columns over
it.  :meth:`Relation.scan_keys` is the one page-scan kernel: it scans many
(key, page) pairs in one NumPy pass and charges nothing.  The indexes
charge the data :class:`Device` for the pages they read and the CPU for
the tuples they examined (``tuples_scanned``).  The exact indexes' rid
fetches, :meth:`Relation.fetch_tids` and :meth:`Relation.fetch_clustered`,
are built on the kernel.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.storage.device import PAGE_SIZE, Device


class PageScan(NamedTuple):
    """Per-pair outcome of :meth:`Relation.scan_keys` (all NumPy arrays)."""

    matches: np.ndarray      # matching tuples on the scanned prefix
    examined: np.ndarray     # tuples examined
    beyond: np.ndarray       # the page's first tuple exceeds the key
    hit_pair: np.ndarray     # pair of each matching tuple, ascending
    hit_tid: np.ndarray      # tid of each matching tuple


class Relation:
    """Fixed-size-tuple heap file, ordered as generated.

    Parameters
    ----------
    columns:
        Mapping of column name to a 1-D array; all columns must have equal
        length.  Order of tuples is the physical order on disk.
    tuple_size:
        Declared bytes per tuple (drives tuples-per-page geometry).
    name:
        Human-readable relation name (used in reports).
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        tuple_size: int,
        name: str = "R",
    ) -> None:
        if not columns:
            raise ValueError("relation needs at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        if tuple_size <= 0 or tuple_size > PAGE_SIZE:
            raise ValueError(f"tuple_size must be in (0, {PAGE_SIZE}]")
        self.name = name
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        self.tuple_size = tuple_size
        self.ntuples = lengths.pop()
        self.tuples_per_page = PAGE_SIZE // tuple_size
        if self.tuples_per_page == 0:
            raise ValueError("tuple larger than a page")
        self.npages = -(-self.ntuples // self.tuples_per_page)  # ceil div

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def page_of(self, tid: int) -> int:
        """Page id holding tuple ``tid``."""
        if not 0 <= tid < self.ntuples:
            raise IndexError(f"tuple id {tid} out of range [0, {self.ntuples})")
        return tid // self.tuples_per_page

    def page_bounds(self, page_id: int) -> tuple[int, int]:
        """Return [first_tid, last_tid_exclusive) for ``page_id``."""
        if not 0 <= page_id < self.npages:
            raise IndexError(f"page id {page_id} out of range [0, {self.npages})")
        first = page_id * self.tuples_per_page
        last = min(first + self.tuples_per_page, self.ntuples)
        return first, last

    @property
    def size_bytes(self) -> int:
        """Declared on-disk size of the relation."""
        return self.npages * PAGE_SIZE

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def scan_keys(self, column: str, keys: Sequence[Any] | np.ndarray,
                  pids: Sequence[int] | np.ndarray, stop_early: bool
                  ) -> PageScan:
        """Scan data page ``pids[i]`` for ``keys[i]``, for every pair at once.

        The page-scan kernel every index's data fetch runs through.  Per
        pair it returns what a tuple-by-tuple scan of the page would
        find: the matches, the tuples ``examined`` and ``beyond`` (the
        page's first tuple already exceeds the key, so on ordered data no
        later page can match).  With ``stop_early`` the scan stops after
        the first tuple greater than the key, the paper's probe on
        ordered data ("as long as the key of the current tuple is smaller
        than the search key"); without it every tuple is examined.
        Matching tids come back flat, as ``(hit_pair, hit_tid)`` in pair
        then tid order.

        Pages are gathered by tid arithmetic (``pid * tuples_per_page``),
        the last partial page padded and masked.  A pid outside
        ``[0, npages)`` raises :class:`IndexError`.  Nothing is charged:
        callers charge the pages they read and the tuples they examined.
        """
        col = self.columns[column]
        page = np.asarray(pids, dtype=np.int64).reshape(-1)
        n = len(page)
        key: np.ndarray
        values: np.ndarray
        examined: np.ndarray
        if col.dtype == object or not n:
            key = np.fromiter(keys, dtype=col.dtype, count=n)
        else:
            key = np.asarray(keys).reshape(-1)
        if len(key) != n:
            raise ValueError(f"{len(key)} keys for {n} pages")
        top = page.max() if n else -1
        if n and (page.min() < 0 or top >= self.npages):
            raise IndexError(f"page ids outside [0, {self.npages})")
        tpp = self.tuples_per_page
        offsets = np.arange(tpp)
        tids = page[:, None] * tpp + offsets
        # Only the last page can be partial: pad it with its last tuple
        # and cap every scan at its page's real length.
        partial = top == self.npages - 1 and self.ntuples % tpp != 0
        if partial:
            values = col[np.minimum(tids, self.ntuples - 1)]
            examined = np.minimum(self.ntuples - page * tpp, tpp)
        else:
            values = col[tids]
            examined = np.full(n, tpp)
        probe = key[:, None]
        eq = values == probe
        if stop_early:
            gt = values > probe
            first_gt = np.where(gt.any(axis=1), gt.argmax(axis=1) + 1, tpp)
            examined = np.minimum(first_gt, examined)
        if stop_early or partial:
            eq &= offsets < examined[:, None]
        hits = np.flatnonzero(eq)
        hit_pair = hits // tpp
        return PageScan(
            matches=np.bincount(hit_pair, minlength=n),
            examined=examined,
            beyond=values[:, 0] > key,
            hit_pair=hit_pair,
            hit_tid=tids.ravel()[hits],
        )

    def fetch_tids(self, column: str, key: Any, tids: Sequence[int],
                   device: Device | None, stop_early: bool) -> int:
        """Read the data pages holding ``tids``; return how many there are.

        The rid fetch of the exact indexes: the distinct pages are read
        in sorted order, the first charged random and every later one
        sequential, and each is scanned for ``key`` (CPU per tuple
        examined, counted in ``tuples_scanned``).  With no ``device``
        nothing is charged.
        """
        tid = np.asarray(tids, dtype=np.int64)
        if len(tid) and (tid.min() < 0 or tid.max() >= self.ntuples):
            raise IndexError(f"tuple ids outside [0, {self.ntuples})")
        pages = np.unique(tid // self.tuples_per_page)
        if device is not None and len(pages):
            scan = self.scan_keys(column, [key] * len(pages), pages,
                                  stop_early)
            device.read_batch(1, len(pages) - 1)
            device.stats.tuples_scanned += int(scan.examined.sum())
        return len(pages)

    def fetch_clustered(self, column: str, key: Any, seed_tids: Iterable[int],
                        device: Device | None) -> tuple[list[int], int]:
        """Clustered probe for ``key``: ``(matching tids, pages read)``.

        From each seed tid's page the fetch reads forward while the
        key's duplicates continue onto the next page (the page's last
        tuple and the next page's first both carry ``key``); a seed
        whose page was already read starts nothing.  Each seed's run is
        charged one random read and sequential reads for the rest.
        Every page read counts all of its tuples in ``tuples_scanned``
        and, unlike :meth:`fetch_tids`, charges no CPU for them (they
        count in ``uncharged_tuples`` too).
        """
        col = self.columns[column]
        pages: list[int] = []
        n_runs = scanned = 0
        for seed in sorted(seed_tids):
            pid = self.page_of(seed)
            if pages and pid <= pages[-1]:
                continue
            n_runs += 1
            while True:
                pages.append(pid)
                first, last = self.page_bounds(pid)
                scanned += last - first
                if not (last < self.ntuples and col[last - 1] == key
                        and col[last] == key):
                    break
                pid += 1
        scan = self.scan_keys(column, [key] * len(pages), pages,
                              stop_early=True)
        if device is not None and pages:
            device.read_batch(n_runs, len(pages) - n_runs)
            device.stats.tuples_scanned += scanned
            device.stats.uncharged_tuples += scanned
        return scan.hit_tid.tolist(), len(pages)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Relation({self.name!r}, ntuples={self.ntuples}, "
            f"tuple_size={self.tuple_size}, npages={self.npages})"
        )
