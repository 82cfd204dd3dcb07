"""Baseline data-page fetches against recorded golden digests.

``tests/golden/page_scan.json`` holds per-op results (tids digested),
IOStats deltas and simulated latencies for the cases in
``tests/golden/page_scan_cases.py``, recorded from the per-tuple page
scan loops before they became calls into ``Relation.scan_keys`` (the
commit is in the file); the IOStats columns after ``cache_misses`` and
the ``key_comparisons`` values were appended when simulated time became
priced IOStats.  Integers must match exactly; latencies and
``key_comparisons`` to ``rtol=1e-9``: latencies were recorded as a
running float clock's deltas and are now priced IOStats deltas, and
compares are float sums of ``log2`` terms.
"""

import json
import pathlib

import numpy as np
import pytest
from golden.page_scan_cases import cases, run_case
from golden.read_cases import IOSTATS_FIELDS, assert_io_equal, ops_digest

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "page_scan.json").read_text()
)
CASES = {case.name: case for case in cases()}
RTOL = 1e-9


def test_fixture_covers_every_case():
    assert GOLDEN["iostats_fields"] == IOSTATS_FIELDS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_op_matches_golden(name):
    case = CASES[name]
    want = GOLDEN["cases"][name]
    assert want["ops_digest"] == ops_digest(case), (
        f"case {name!r} changed since recording; re-record with "
        "tests/golden/record_page_scan.py"
    )
    got = run_case(case)
    assert got["results"] == want["results"]
    assert_io_equal(got["io"], want["io"], RTOL)
    np.testing.assert_allclose(got["latency"], want["latency"], rtol=RTOL)
