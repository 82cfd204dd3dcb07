"""Core contribution: Bloom filters, BF-leaves, and the BF-Tree index."""

from repro.core.bf_leaf import BFLeaf, BFLeafGeometry, LeafOverflow
from repro.core.bf_tree import BFTree, BFTreeConfig
from repro.core.bloom import (
    DEFAULT_HASH_COUNT,
    BloomFilter,
    bits_for_capacity,
    capacity_for_bits,
    expected_fpp,
    fpp_after_deletes,
    fpp_after_inserts,
    optimal_hash_count,
)
from repro.core.hashing import bloom_positions, hash_pair, key_to_int, splitmix64

__all__ = [
    "BFLeaf",
    "BFLeafGeometry",
    "LeafOverflow",
    "BFTree",
    "BFTreeConfig",
    "DEFAULT_HASH_COUNT",
    "BloomFilter",
    "bits_for_capacity",
    "capacity_for_bits",
    "expected_fpp",
    "fpp_after_deletes",
    "fpp_after_inserts",
    "optimal_hash_count",
    "bloom_positions",
    "hash_pair",
    "key_to_int",
    "splitmix64",
]
