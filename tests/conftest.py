"""Shared fixtures: small relations and storage stacks for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import Relation, build_stack
from repro.workloads import shd, synthetic, tpch


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end test (deselect with "
        "-m 'not slow')"
    )


@pytest.fixture(scope="session")
def pk_relation() -> Relation:
    """8192 unique, sorted primary keys (512 data pages of 16 tuples)."""
    return Relation(
        {"pk": np.arange(8192, dtype=np.int64)}, tuple_size=256, name="pk-rel"
    )


@pytest.fixture(scope="session")
def dup_relation() -> Relation:
    """Sorted keys with ~11 duplicates each (the paper's ATT1 shape)."""
    return synthetic.generate(8192, avg_cardinality=11, seed=3)


@pytest.fixture(scope="session")
def tpch_relation() -> Relation:
    return tpch.generate(8192, seed=5)


@pytest.fixture(scope="session")
def shd_relation() -> Relation:
    return shd.generate(8192, seed=11)


@pytest.fixture()
def mem_ssd_stack():
    return build_stack("MEM/SSD")


@pytest.fixture()
def hdd_stack():
    return build_stack("HDD/HDD")
