"""``Relation.scan_keys`` against a tuple-by-tuple reference scan.

The reference below is the loop every index used to run per data page:
examine tuples in order, count those equal to the key, and — with
``stop_early`` — stop after the first tuple greater than the key.  The
kernel must reproduce its matches, tuples examined, matching tids and
the "page starts past the key" flag for every (key, page) pair: sorted
and unsorted pages, duplicates, keys below, inside and above a page, a
partial last page, and int, float and ``str`` columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Relation


def reference_scan(values, first_tid, key, stop_early):
    """(matches, examined, beyond, tids) of one page, tuple by tuple."""
    matches = examined = 0
    tids = []
    for i, value in enumerate(values):
        examined += 1
        if value == key:
            matches += 1
            tids.append(first_tid + i)
        elif stop_early and value > key:
            break
    return matches, examined, bool(values[0] > key), tids


DOMAINS = {
    "int": st.integers(-3, 12),
    "float": st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.5, 3.0, 7.75]),
    "str": st.sampled_from(["", "a", "ab", "b", "ba", "k/0001", "k/0002"]),
}


def _column(kind, values, dtype):
    if kind == "str":
        return np.array(values, dtype=object if dtype == "object" else str)
    return np.asarray(values, dtype=np.int64 if kind == "int" else float)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(DOMAINS)),
    dtype=st.sampled_from(["native", "object"]),
    tuple_size=st.sampled_from([512, 1024, 2048]),   # 8, 4, 2 per page
    ordered=st.booleans(),
    stop_early=st.booleans(),
)
def test_kernel_matches_reference(data, kind, dtype, tuple_size, ordered,
                                  stop_early):
    domain = DOMAINS[kind]
    values = data.draw(st.lists(domain, min_size=1, max_size=30))
    if ordered:
        values.sort()
    rel = Relation({"k": _column(kind, values, dtype)},
                   tuple_size=tuple_size)
    col = rel.columns["k"]
    pairs = data.draw(st.lists(
        st.tuples(domain, st.integers(0, rel.npages - 1)), max_size=12))
    keys = [key for key, _ in pairs]
    pids = [pid for _, pid in pairs]
    scan = rel.scan_keys("k", keys, pids, stop_early)

    want_tids = []
    for i, (key, pid) in enumerate(pairs):
        first, last = rel.page_bounds(pid)
        matches, examined, beyond, tids = reference_scan(
            col[first:last], first, key, stop_early)
        assert scan.matches[i] == matches
        assert scan.examined[i] == examined
        assert scan.beyond[i] == beyond
        want_tids += [(i, t) for t in tids]
    got_tids = list(zip(scan.hit_pair.tolist(), scan.hit_tid.tolist()))
    assert got_tids == want_tids


def test_str_keys_longer_than_the_column_width():
    rel = Relation({"k": np.array(["a", "b", "c"])}, tuple_size=2048)
    scan = rel.scan_keys("k", ["bb", "b"], [0, 1], stop_early=True)
    assert scan.matches.tolist() == [0, 0]
    assert scan.examined.tolist() == [2, 1]      # "b" < "bb" < "c"
    assert scan.beyond.tolist() == [False, True]


def test_no_pairs():
    rel = Relation({"k": np.arange(5)}, tuple_size=2048)
    scan = rel.scan_keys("k", [], [], stop_early=True)
    assert len(scan.matches) == len(scan.hit_tid) == 0


@pytest.mark.parametrize("pid", [-1, 3, 10])
def test_out_of_range_pid_raises(pid):
    rel = Relation({"k": np.arange(5)}, tuple_size=2048)  # 3 pages
    with pytest.raises(IndexError):
        rel.scan_keys("k", [1, 1], [0, pid], stop_early=False)

