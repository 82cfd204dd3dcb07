"""Bloom filters and the sizing math of the paper's Section 3.

The paper builds on one identity (its Equation 1, assuming an optimal
number of hash functions)::

    n = -m * ln^2(2) / ln(p)

relating filter size ``m`` (bits), capacity ``n`` (elements) and false
positive probability ``p``.  Two properties follow (paper §3):

1. **Split property** — a filter of M bits for N elements at fpp p can be
   split into S filters of M/S bits for N/S elements each, at the same p.
   This is what lets a BF-leaf dedicate one small filter per data page.
2. Halving p costs only logarithmically many extra bits per element.

At runtime a BF-leaf keeps its S same-geometry filters *bit-sliced* in
one ``(bits, ceil(S / 8))`` uint8 *page* (see :mod:`repro.core.bf_leaf`):
row ``b`` holds bit ``b`` of every filter, so a key's test against all S
filters is the AND of its k rows (Faloutsos & Christodoulakis' bit-sliced
signature files).  :func:`page_from_rows` and :func:`page_to_rows`
convert to and from the row form, one filter per row, that snapshots
store.  A counting leaf (§7) also keeps one uint8 counter per bit in an
``(S, bits)`` *counter page*, bumped by :func:`counter_page_add`.
:class:`BloomFilter` is a standalone filter in row form with the same
hashing.  The analytical functions are the counterparts used by the
model in :mod:`repro.model.equations`.
"""

from __future__ import annotations

import math

import numpy as np

# ``bloom_positions_batch`` is the batch hasher whose ``(n, k)`` rows the
# leaf pages take; it stays importable from this module.
from repro.core.hashing import (  # noqa: F401
    bloom_positions,
    bloom_positions_batch,
    key_to_int,
)

LN2 = math.log(2.0)
LN2_SQ = LN2 * LN2

DEFAULT_HASH_COUNT = 3
"""The paper's experiments fix k = 3 hash functions (Section 6.1)."""


# ----------------------------------------------------------------------
# Analytical relations (Equation 1 and friends)
# ----------------------------------------------------------------------
def capacity_for_bits(nbits: int | float, fpp: float) -> float:
    """Equation 1: elements indexable by ``nbits`` bits at ``fpp``."""
    _check_fpp(fpp)
    return -nbits * LN2_SQ / math.log(fpp)

def bits_for_capacity(nkeys: int | float, fpp: float) -> float:
    """Inverse of Equation 1: bits needed for ``nkeys`` elements at ``fpp``."""
    _check_fpp(fpp)
    if nkeys < 0:
        raise ValueError("nkeys must be non-negative")
    return -nkeys * math.log(fpp) / LN2_SQ

def optimal_hash_count(nbits: int | float, nkeys: int | float) -> int:
    """Optimal k = (m/n) ln 2, at least 1."""
    if nkeys <= 0:
        return 1
    return max(1, round((nbits / nkeys) * LN2))

def expected_fpp(nbits: int | float, nkeys: int | float, k: int) -> float:
    """Expected false-positive rate of an m-bit filter with n keys, k hashes.

    Uses the standard (1 - e^{-kn/m})^k approximation.
    """
    if nbits <= 0:
        return 1.0
    if nkeys <= 0:
        return 0.0
    return (1.0 - math.exp(-k * nkeys / nbits)) ** k

def fpp_after_inserts(fpp: float, insert_ratio: float) -> float:
    """Equation 14: fpp after growing a full filter by ``insert_ratio``.

    ``new_fpp = fpp ** (1 / (1 + insert_ratio))``.  Holds independently of
    filter size and element count (paper §7).
    """
    _check_fpp(fpp)
    if insert_ratio < 0:
        raise ValueError("insert_ratio must be non-negative")
    return fpp ** (1.0 / (1.0 + insert_ratio))

def fpp_after_deletes(fpp: float, delete_ratio: float) -> float:
    """Paper §7: deleting a fraction d of entries adds d to the fpp."""
    _check_fpp(fpp)
    if not 0 <= delete_ratio <= 1:
        raise ValueError("delete_ratio must be in [0, 1]")
    return min(1.0, fpp + delete_ratio)

def _check_fpp(fpp: float) -> None:
    if not 0.0 < fpp < 1.0:
        raise ValueError(f"fpp must be in (0, 1), got {fpp}")


# ----------------------------------------------------------------------
# Filter pages: S same-geometry filters, bit-sliced
# ----------------------------------------------------------------------
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)
"""Lookup of single-bit uint64 masks, indexed by bit offset within a word."""


def words_per_filter(nbits: int) -> int:
    """uint64 words holding an ``nbits``-bit filter in row form."""
    return (nbits + 63) // 64


def page_width(nfilters: int) -> int:
    """Bytes per row of a bit-sliced page holding ``nfilters`` filters."""
    return (nfilters + 7) // 8


def page_from_rows(rows: np.ndarray, nbits: int) -> np.ndarray:
    """The bit-sliced page of row-form filters.

    ``rows`` is an ``(n, words_per_filter)`` uint64 matrix whose row
    ``i`` is filter ``i`` (bit ``j`` is bit ``j % 64`` of word
    ``j // 64``, the layout of :class:`BloomFilter` and of BF-Tree
    snapshots).  Returns the ``(nbits, page_width(n))`` uint8 page whose
    row ``b`` holds bit ``b`` of every filter: filter ``g`` is bit
    ``g & 7`` of byte ``g >> 3``.  :func:`page_to_rows` is the inverse.
    """
    raw = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(raw, axis=1, count=nbits, bitorder="little")
    return np.packbits(bits.T, axis=1, bitorder="little")


def page_to_rows(page: np.ndarray, n: int) -> np.ndarray:
    """Filters ``[0, n)`` of a bit-sliced page in row form: the inverse
    of :func:`page_from_rows`."""
    nbits = page.shape[0]
    bits = np.unpackbits(page, axis=1, count=n, bitorder="little").T
    raw = np.zeros((n, words_per_filter(nbits) * 8), dtype=np.uint8)
    raw[:, :(nbits + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return raw.view("<u8").astype(np.uint64)


def row_set_positions(row: np.ndarray, positions) -> None:
    """Set one key's bit ``positions`` in one row-form filter's words."""
    for pos in positions:
        row[pos >> 6] |= _BIT[pos & 63]


def row_test_positions(row: np.ndarray, positions) -> bool:
    """Are all of one key's bit ``positions`` set in one row-form
    filter's words?"""
    for pos in positions:
        if not (int(row[pos >> 6]) >> (pos & 63)) & 1:
            return False
    return True


# ----------------------------------------------------------------------
# Counter pages: the counting filters of §7, one uint8 counter per bit
# ----------------------------------------------------------------------
def counter_page_add(counters: np.ndarray, rows: np.ndarray,
                     positions: np.ndarray, cap: int) -> None:
    """Add one to counter row ``rows[j]`` at each of key ``j``'s
    ``positions[j]``, saturating at ``cap``.

    ``counters`` is a C-contiguous ``(S, nbits)`` uint8 matrix.  Each
    touched counter takes all of its increments in one saturating add,
    which equals applying them one at a time in any order (a position
    repeated within one key counts twice).
    """
    positions = np.asarray(positions)
    nbits = counters.shape[1]
    cells = np.repeat(np.asarray(rows, dtype=np.int64) * nbits,
                      positions.shape[1]) + positions.ravel()
    cells, n = np.unique(cells, return_counts=True)
    flat = counters.reshape(-1)
    flat[cells] = np.minimum(flat[cells] + n, cap)


class BloomFilter:
    """A standalone fixed-size Bloom filter over integer-canonicalized keys.

    BF-leaves do not use it: a leaf keeps its filters bit-sliced in one
    page (the functions above).  This is the single filter Figure 14's
    validation overfills and the tests' oracle for leaf pages; its bits
    are in row form (bit ``i`` is bit ``i % 64`` of word ``i // 64``, a
    row of :func:`page_to_rows`) and its keys hash like a leaf's.
    """

    __slots__ = ("nbits", "k", "seed", "_words")

    def __init__(self, nbits: int, k: int = DEFAULT_HASH_COUNT,
                 seed: int = 0) -> None:
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.nbits = nbits
        self.k = k
        self.seed = seed
        self._words = np.zeros(words_per_filter(nbits), dtype=np.uint64)

    def _positions(self, key: object) -> list[int]:
        return bloom_positions(key_to_int(key), self.k, self.nbits, self.seed)

    def add(self, key: object) -> None:
        """Insert ``key`` (no-op on the bit level if all bits already set)."""
        row_set_positions(self._words, self._positions(key))

    def might_contain(self, key: object) -> bool:
        """Membership test: False is definite, True may be a false positive."""
        return row_test_positions(self._words, self._positions(key))
