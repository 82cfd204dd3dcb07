"""Write engines against recorded golden digests.

``tests/golden/write_engine.json`` holds, for the cases in
``tests/golden/write_cases.py``, each write step's outcome, IOStats
delta and simulated latencies, a digest of the whole tree after every
step and each leaf's digest at the end (filter bits, counters and add
counts, ``nkeys``, overflow, tombstones and hash seed).  It was recorded
before BF-leaves moved to one filter layout, on that code plus two
fixes: a split's leaf rescan keeps only keys inside the leaf's own key
range (a page shared with a neighbour no longer pulls the neighbour's
keys in), and a range scan counts each leaf's pages only within that
leaf's key range (a shared page is counted once).
The IOStats columns after ``cache_misses`` and the ``key_comparisons``
values were appended when simulated time became priced IOStats.
Integers and digests must match exactly; latencies and
``key_comparisons`` to ``rtol=1e-9``: latencies were recorded from a
running float clock and are now priced IOStats deltas, and compares are
float sums of ``log2`` terms.
"""

import json
import pathlib

import numpy as np
import pytest
from golden.read_cases import IOSTATS_FIELDS, assert_io_equal
from golden.write_cases import cases, run_case, steps, steps_digest

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "write_engine.json")
    .read_text()
)
CASES = {case.name: case for case in cases()}
RTOL = 1e-9


def test_fixture_covers_every_case():
    assert GOLDEN["iostats_fields"] == IOSTATS_FIELDS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


def _flat(latency):
    return [x for item in latency
            for x in (item if isinstance(item, list) else [item])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_steps_match_golden(name):
    case, want = CASES[name], GOLDEN["cases"][name]
    assert want["steps_digest"] == steps_digest(steps(case)), (
        f"case {name!r} changed since recording; re-record with "
        "tests/golden/record_write_engine.py"
    )
    got = run_case(case)
    assert got["outcomes"] == want["outcomes"]
    assert_io_equal(got["io"], want["io"], RTOL)
    assert got["leaves"] == want["leaves"]
    assert got["trees"] == want["trees"]
    np.testing.assert_allclose(_flat(got["latency"]), _flat(want["latency"]),
                               rtol=RTOL)
