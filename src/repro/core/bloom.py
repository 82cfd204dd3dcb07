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

At runtime a BF-leaf keeps its S same-geometry filters as the rows of
one ``(S, words_per_filter)`` uint64 *page* (see
:mod:`repro.core.bf_leaf`): the page functions below set a batch of
keys' bits, test a probe batch against all S rows in one gather, and
count set bits.  A counting leaf (§7) also keeps one uint8 counter per
bit in an ``(S, bits)`` *counter page*, bumped by
:func:`counter_page_add`.  :class:`BloomFilter` is a standalone filter
with the same bit layout and hashing.  The analytical functions are the
counterparts used by the model in :mod:`repro.model.equations`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# ``bloom_positions_batch`` is the batch hasher whose ``(n, k)`` rows the
# page functions below take; it stays importable from this module.
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
# Filter pages: S same-geometry filters as the rows of one word matrix
# ----------------------------------------------------------------------
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)
"""Lookup of single-bit uint64 masks, indexed by bit offset within a word."""


def words_per_filter(nbits: int) -> int:
    """uint64 words holding an ``nbits``-bit filter."""
    return (nbits + 63) // 64


def page_set_positions(page: np.ndarray, rows: np.ndarray,
                       positions: np.ndarray) -> None:
    """OR key ``j``'s k bit ``positions[j]`` into filter row ``rows[j]``.

    ``page`` is an ``(S, words_per_filter)`` uint64 matrix whose rows are
    filters of one geometry; bit ``i`` of a row is bit ``i % 64`` of its
    word ``i // 64``.
    """
    flat = positions.ravel()
    np.bitwise_or.at(
        page, (np.repeat(rows, positions.shape[1]), flat >> 6),
        _BIT[flat & 63],
    )


def row_set_positions(row: np.ndarray, positions) -> None:
    """Set one key's bit ``positions`` in one filter's word array (a
    page row): the scalar :func:`page_set_positions`."""
    for pos in positions:
        row[pos >> 6] |= _BIT[pos & 63]


def row_clear_positions(row: np.ndarray, positions) -> None:
    """Clear bit ``positions`` in one filter's word array (a counting
    filter's bits whose counters dropped to zero)."""
    for pos in positions:
        row[pos >> 6] &= ~_BIT[pos & 63]


def row_test_positions(row: np.ndarray, positions) -> bool:
    """Are all of one key's bit ``positions`` set in one filter's word
    array?  The scalar :func:`page_test_rows`."""
    for pos in positions:
        if not (int(row[pos >> 6]) >> (pos & 63)) & 1:
            return False
    return True


def page_test(page: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Test ``(n, k)`` bit positions against every row of a filter page.

    Returns an ``(n, S)`` boolean matrix: entry ``(j, i)`` is True when
    all of key ``j``'s bits are set in row ``i``.  Every (key, filter)
    pair is read in one fancy-index gather over the page's bytes (a
    byte gather moves an eighth of the data a word gather would).  The
    key batch is processed in chunks bounding the ``(S, chunk, k)``
    gather to ~64 MB, so a huge batch (a boundary-enumerating range scan
    can probe 100k values) cannot blow up peak memory; normal probe
    batches fit one chunk.
    """
    n, k = positions.shape
    s = page.shape[0]
    out = np.empty((n, s), dtype=bool)
    byte, shift = _byte_coords(positions)
    view = page.view(np.uint8)
    step = max(1, (1 << 26) // max(1, s * k))
    for start in range(0, n, step):
        stop = start + step
        gathered = view[:, byte[start:stop]]             # (S, chunk, k)
        hits = np.bitwise_and.reduce(gathered >> shift[start:stop], axis=2)
        out[start:stop] = (hits & 1).T
    return out


def page_test_rows(page: np.ndarray, rows: np.ndarray,
                   positions: np.ndarray) -> np.ndarray:
    """Membership of key ``j``'s ``positions[j]`` in filter row ``rows[j]``
    only (``(n,)`` booleans)."""
    byte, shift = _byte_coords(positions)
    gathered = page.view(np.uint8)[rows[:, None], byte]  # (n, k)
    return (np.bitwise_and.reduce(gathered >> shift, axis=1) & 1) \
        .astype(bool)


def _byte_coords(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte offset (in a filter's word array viewed as bytes) and bit
    shift within that byte of each filter bit position."""
    if sys.byteorder == "little":
        byte = positions >> 3
    else:  # bytes of each word run most-significant first
        byte = ((positions >> 6) << 3) + (7 - ((positions & 63) >> 3))
    return byte, (positions & 7).astype(np.uint8)


def page_popcount(page: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Number of 1-bits in each listed filter row (exact integers)."""
    return np.unpackbits(page[rows].view(np.uint8), axis=1).sum(axis=1)


def page_from_bits(bits: np.ndarray) -> np.ndarray:
    """The filter page whose row ``i`` has bit ``j`` set iff
    ``bits[i, j]``, for an ``(S, nbits)`` boolean matrix."""
    s, nbits = bits.shape
    raw = np.zeros((s, words_per_filter(nbits) * 8), dtype=np.uint8)
    raw[:, :(nbits + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return raw.view("<u8").astype(np.uint64)


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

    BF-leaves do not use it: a leaf keeps its filters as the rows of one
    page (the functions above).  This is the single filter Figure 14's
    validation overfills; its bits are laid out like one page row (bit
    ``i`` is bit ``i % 64`` of word ``i // 64``) and its keys hash like a
    leaf's.
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
