"""Baseline access methods the paper compares BF-Trees against."""

from repro.baselines.bptree import BPLeaf, BPlusTree, BPlusTreeConfig
from repro.baselines.fd_tree import FDTree, FDTreeConfig
from repro.baselines.hash_index import HashIndex
from repro.baselines.interpolation import SortedFileSearch
from repro.baselines.silt import SiltConfig, SiltStore

__all__ = [
    "BPLeaf",
    "BPlusTree",
    "BPlusTreeConfig",
    "FDTree",
    "FDTreeConfig",
    "HashIndex",
    "SortedFileSearch",
    "SiltConfig",
    "SiltStore",
]
