"""Deterministic 64-bit hashing for Bloom filters.

Each key maps to k bit positions: two base hashes ``h1``/``h2`` (splitmix64
finalizers with distinct seeds — fast, stateless, and deterministic across
runs and processes, unlike Python's builtin ``hash`` with string
randomization), then a running hash re-mixed once per position (see
:func:`bloom_positions` for why plain double hashing is not enough).

:func:`bloom_positions` is the scalar form; :func:`bloom_positions_batch`
computes the exact same uint64 arithmetic for a whole NumPy key array,
so batch and scalar paths agree bit-for-bit.  The batch kernel takes a
per-row seed array as well as a single seed: a BF-Tree hashes every
(key, leaf) row of a probe or write batch — each leaf has its own filter
seed — in one call, and bulk loading hashes a whole leaf's pages at once.
The cost of the batch path is per-call NumPy overhead, not arithmetic, so
callers hash as few, as large, arrays as they can.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_SEED1 = 0x9E3779B97F4A7C15
_SEED2 = 0xC2B2AE3D27D4EB4F


def splitmix64(value: int) -> int:
    """One splitmix64 finalizer round over a 64-bit value."""
    value = (value + _SEED1) & MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & MASK64
    return (value ^ (value >> 31)) & MASK64


def hash_pair(key: int, seed: int = 0) -> tuple[int, int]:
    """Return two independent 64-bit hashes of ``key``.

    ``seed`` lets distinct Bloom filters decorrelate their bit patterns
    (used when several filters index overlapping key sets).
    """
    h1 = splitmix64((key ^ seed) & MASK64)
    h2 = splitmix64((key + _SEED2 + (seed << 1)) & MASK64)
    # h2 must be odd so that successive probe offsets cycle through all
    # residues for power-of-two table sizes as well.
    return h1, h2 | 1


def bloom_positions(key: int, k: int, nbits: int, seed: int = 0) -> list[int]:
    """The k bit positions ``key`` maps to in an ``nbits``-bit filter.

    Plain Kirsch-Mitzenmacher double hashing (an arithmetic progression
    ``h1 + i*h2 mod m``) degrades badly for the small, high-accuracy
    filters a BF-leaf uses (hundreds of bits, k up to ~20): measured fpp
    lands orders of magnitude above Equation 1.  We therefore re-mix the
    running hash per position, which behaves like k independent hashes at
    the cost of one splitmix64 round each.
    """
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    h1, h2 = hash_pair(key, seed)
    positions = []
    acc = h1
    for _ in range(k):
        positions.append(acc % nbits)
        acc = splitmix64((acc + h2) & MASK64)
    return positions


def bloom_positions_batch(keys, k: int, nbits: int, seed=0):
    """Vectorized :func:`bloom_positions` for a NumPy integer array.

    Returns a ``(len(keys), k)`` int array of bit positions, computed with
    the exact arithmetic of the scalar path (uint64 wrap-around), so bulk
    inserts and scalar probes agree bit-for-bit.  ``seed`` is one int for
    the whole batch, or an integer array with one seed per key: row ``j``
    then equals ``bloom_positions(keys[j], k, nbits, seed[j])``, which lets
    a caller hash keys bound for many differently-seeded filters in one
    call.
    """
    if nbits <= 0:
        raise ValueError("nbits must be positive")
    keys64 = np.asarray(keys).astype(np.uint64)
    n = len(keys64)
    # Rows 0/1 of ``base`` become h1/h2: both take one fused splitmix.
    base = np.empty((2, n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        if np.ndim(seed) == 0:
            seed = int(seed)
            mix1 = _u64(seed & MASK64)
            mix2 = _u64((_SEED2 + ((seed << 1) & MASK64)) & MASK64)
        else:
            mix1 = _seeds_to_uint64(seed)
            mix2 = (mix1 << _U1) + _U_SEED2
        np.bitwise_xor(keys64, mix1, out=base[0])
        np.add(keys64, mix2, out=base[1])
        tmp = np.empty_like(base)
        _splitmix64_inplace(base, tmp)
        acc, h2 = base[0], base[1]
        h2 |= _U1
        tmp = tmp[0]
        positions = np.empty((k, n), dtype=np.uint64)
        m = _u64(nbits)
        for i in range(k):
            np.remainder(acc, m, out=positions[i])
            if i + 1 < k:
                acc += h2
                _splitmix64_inplace(acc, tmp)
    return positions.T.astype(np.int64, order="C")


def _seeds_to_uint64(seeds):
    """A per-row seed array as uint64, each seed taken mod 2**64 (the
    scalar path's ``& MASK64``), whether it arrives as a signed/unsigned
    NumPy array or as a sequence of Python ints of any size."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iub":
        return seeds.astype(np.uint64)
    return np.fromiter((int(s) & MASK64 for s in seeds), dtype=np.uint64,
                       count=len(seeds))


def _u64(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array.  A ufunc takes a 0-d array
    operand at about half the per-call cost of a NumPy scalar, and the
    kernel is dominated by per-call cost; the arithmetic is the same."""
    return np.array(value, dtype=np.uint64)


_U1 = _u64(1)
_U_SEED1 = _u64(_SEED1)
_U_SEED2 = _u64(_SEED2)
_U_MUL1 = _u64(0xBF58476D1CE4E5B9)
_U_MUL2 = _u64(0x94D049BB133111EB)
_U30, _U27, _U31 = _u64(30), _u64(27), _u64(31)


def _splitmix64_inplace(v, tmp) -> None:
    """NumPy counterpart of :func:`splitmix64` (same constants, wraps),
    applied to ``v`` in place with ``tmp`` (same shape) as scratch.

    The caller holds ``np.errstate(over="ignore")`` once around the whole
    kernel instead of once per round.
    """
    v += _U_SEED1
    np.right_shift(v, _U30, out=tmp)
    v ^= tmp
    v *= _U_MUL1
    np.right_shift(v, _U27, out=tmp)
    v ^= tmp
    v *= _U_MUL2
    np.right_shift(v, _U31, out=tmp)
    v ^= tmp


def keys_to_int_array(keys):
    """Canonicalize a batch of keys to a ``uint64`` NumPy array.

    The vectorized counterpart of :func:`key_to_int`: integer (and bool)
    arrays pass straight through, wrapping negatives mod 2**64 exactly as
    the scalar path's ``& MASK64`` masking does; any other element type is
    folded per element through :func:`key_to_int`.  Feeding the result to
    :func:`bloom_positions_batch` therefore yields the same bit positions
    as hashing each key scalarly.
    """
    arr = np.asarray(keys)
    if arr.dtype.kind in "iub":
        with np.errstate(over="ignore"):
            return arr.astype(np.uint64)
    return np.asarray(
        [key_to_int(key) & MASK64 for key in keys], dtype=np.uint64
    )


def key_to_int(key: object) -> int:
    """Canonicalize a key to an int for hashing.

    Integers pass through; bytes/str are folded with an FNV-1a loop.  This
    keeps the index generic over key types while the hot path stays integer
    based.
    """
    if isinstance(key, bool):  # bool is an int subclass; treat explicitly
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        acc = 0xCBF29CE484222325
        for byte in key:
            acc = ((acc ^ byte) * 0x100000001B3) & MASK64
        return acc
    raise TypeError(f"unhashable index key type: {type(key).__name__}")
