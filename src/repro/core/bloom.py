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

:class:`BloomFilter` is the runtime structure: a ``uint64`` word array
plus k re-mixed hash probes.  The words either belong to the filter or,
for the filters of one BF-leaf, are one row of the leaf's shared
``(S, words_per_filter)`` page matrix (see :mod:`repro.core.bf_leaf`),
so the leaf can test a whole probe batch against all S filters in one
gather.  The module-level functions are the analytical counterparts used
by the model in :mod:`repro.model.equations`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.core.hashing import (
    bloom_positions,
    bloom_positions_batch,
    key_to_int,
    keys_to_int_array,
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
# Runtime structure
# ----------------------------------------------------------------------
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)
"""Lookup of single-bit uint64 masks, indexed by bit offset within a word."""


def words_per_filter(nbits: int) -> int:
    """uint64 words holding an ``nbits``-bit filter."""
    return (nbits + 63) // 64


# ----------------------------------------------------------------------
# Filter pages: S same-geometry filters as the rows of one word matrix
# ----------------------------------------------------------------------
def page_set_positions(page: np.ndarray, rows: np.ndarray,
                       positions: np.ndarray) -> None:
    """OR key ``j``'s k bit ``positions[j]`` into filter row ``rows[j]``.

    ``page`` is an ``(S, words_per_filter)`` uint64 matrix whose rows are
    filters of one geometry; the scatter is bit-for-bit what
    :meth:`BloomFilter.add_positions` does row by row.
    """
    flat = positions.ravel()
    np.bitwise_or.at(
        page, (np.repeat(rows, positions.shape[1]), flat >> 6),
        _BIT[flat & 63],
    )


def page_test(page: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Test ``(n, k)`` bit positions against every row of a filter page.

    Returns an ``(n, S)`` boolean matrix whose column ``i`` equals
    :meth:`BloomFilter.test_positions` of row ``i``: every (key, filter)
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


class BloomFilter:
    """A fixed-size Bloom filter over integer-canonicalized keys.

    The bit array is a NumPy ``uint64`` word array (bit ``i`` of the
    filter is bit ``i % 64`` of word ``i // 64``), which keeps the scalar
    probe path cheap while letting :meth:`might_contain_many` test a whole
    probe batch against the filter in one vectorized gather.

    ``words``, when given, is the storage to use instead of a private
    zeroed array — a ``uint64`` array of :func:`words_per_filter` entries.
    A BF-leaf passes row ``i`` of its page matrix, so every write through
    this filter lands in the page and batch probes can gather all of the
    leaf's filters at once.
    """

    __slots__ = ("nbits", "k", "seed", "_words", "count")

    def __init__(self, nbits: int, k: int = DEFAULT_HASH_COUNT, seed: int = 0,
                 words: np.ndarray | None = None) -> None:
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.nbits = nbits
        self.k = k
        self.seed = seed
        if words is None:
            words = np.zeros(words_per_filter(nbits), dtype=np.uint64)
        self._words = words
        self.count = 0  # elements added (with multiplicity of distinct adds)

    @property
    def _bits(self) -> int:
        """The bit array as one big-int (bit ``i`` set = position ``i`` hit).

        Diagnostic view of the word array; comparisons through it are
        layout-independent, which the equality tests rely on.
        """
        return int.from_bytes(self._words.tobytes(), "little")

    @classmethod
    def for_capacity(
        cls, nkeys: int, fpp: float, k: int = DEFAULT_HASH_COUNT, seed: int = 0
    ) -> "BloomFilter":
        """Size a filter for ``nkeys`` elements at target ``fpp`` (Eq. 1)."""
        nbits = max(1, math.ceil(bits_for_capacity(max(nkeys, 1), fpp)))
        return cls(nbits=nbits, k=k, seed=seed)

    # ------------------------------------------------------------------
    def add(self, key: object) -> None:
        """Insert ``key`` (no-op on the bit level if all bits already set)."""
        self.add_positions(
            bloom_positions(key_to_int(key), self.k, self.nbits, self.seed)
        )

    def add_positions(self, positions) -> None:
        """Insert one key given its precomputed k bit positions.

        The scatter half of :meth:`add`: a BF-leaf that adds a key batch
        to several same-geometry filters hashes the batch once
        (:func:`~repro.core.hashing.bloom_positions_batch`) and feeds each
        filter only the rows it owns.
        """
        words = self._words
        for pos in positions:
            words[pos >> 6] |= _BIT[pos & 63]
        self.count += 1

    def contains_positions(self, positions) -> bool:
        """Membership test of one key's precomputed k bit positions."""
        words = self._words
        for pos in positions:
            if not (int(words[pos >> 6]) >> (pos & 63)) & 1:
                return False
        return True

    def bulk_add(self, keys) -> None:
        """Insert a NumPy array of integer keys in one vectorized pass.

        Bit-for-bit identical to adding each key with :meth:`add`; used by
        bulk loading, where per-key Python overhead dominates build time.
        """
        keys = np.asarray(keys)
        if len(keys) == 0:
            return
        positions = bloom_positions_batch(keys, self.k, self.nbits, self.seed)
        flat = positions.ravel()
        np.bitwise_or.at(self._words, flat >> 6, _BIT[flat & 63])
        self.count += len(keys)

    def might_contain(self, key: object) -> bool:
        """Membership test: False is definite, True may be a false positive."""
        return self.contains_positions(
            bloom_positions(key_to_int(key), self.k, self.nbits, self.seed)
        )

    __contains__ = might_contain

    def might_contain_many(self, keys) -> np.ndarray:
        """Vectorized :meth:`might_contain` for a batch of keys.

        Returns a boolean array of ``len(keys)``; entry ``j`` equals
        ``might_contain(keys[j])`` exactly (same double-hashed positions,
        computed by :func:`~repro.core.hashing.bloom_positions_batch`
        over the canonicalized uint64 form of each key).
        """
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        keys = keys_to_int_array(keys)
        positions = bloom_positions_batch(keys, self.k, self.nbits, self.seed)
        return self.test_positions(positions)

    def test_positions(self, positions: np.ndarray) -> np.ndarray:
        """Membership of precomputed ``(n, k)`` bit positions (one row per key).

        Lets a caller that probes many same-geometry filters (a BF-leaf,
        whose S filters share nbits/k/seed) hash the key batch once and
        test the resulting positions against every filter.
        """
        words = self._words[positions >> 6]
        bits = (words >> (positions & 63).astype(np.uint64)) & np.uint64(1)
        return bits.all(axis=1)

    # ------------------------------------------------------------------
    def bits_set(self) -> int:
        """Number of 1-bits in the array (diagnostics; not a hot path)."""
        return self._bits.bit_count()

    def fill_fraction(self) -> float:
        """Fraction of bits set; drives the effective false-positive rate."""
        return self.bits_set() / self.nbits

    def effective_fpp(self) -> float:
        """Current false-positive probability given the observed fill.

        A probe false-positives iff all k probed bits are set, so the rate
        is ``fill_fraction ** k`` under the usual independence assumption.
        """
        return self.fill_fraction() ** self.k

    def expected_fpp(self) -> float:
        """Model-predicted fpp for the number of keys added so far."""
        return expected_fpp(self.nbits, self.count, self.k)

    def clear(self) -> None:
        """Reset to an empty filter."""
        self._words[:] = 0
        self.count = 0

    def size_bytes(self) -> int:
        """Bytes this filter occupies on an index page."""
        return -(-self.nbits // 8)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BloomFilter(nbits={self.nbits}, k={self.k}, "
            f"count={self.count}, fill={self.fill_fraction():.3f})"
        )
