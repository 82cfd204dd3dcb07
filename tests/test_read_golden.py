"""Read engines against recorded golden digests.

``tests/golden/read_engine.json`` holds per-op results (tids digested),
IOStats deltas and simulated latencies for the cases in
``tests/golden/read_cases.py``, recorded from the engine before the
scalar BF-Tree/B+-Tree read paths became batches of one (the commit is
in the file); the IOStats columns after ``cache_misses`` and the
``key_comparisons`` values were appended when simulated time became
priced IOStats.  Integers must match exactly; latencies and
``key_comparisons`` to ``rtol=1e-9``: latencies were recorded as a
running float clock's deltas and are now priced IOStats deltas, and
compares are float sums of ``log2`` terms.

Each case is checked twice: op by op through the public scalar calls
(``search``, ``range_scan``, ``intersect_probe``), and as whole batches
through ``search_many``/``range_scan_many``, whose per-op latencies and
total IOStats must reproduce the same recording.
"""

import json
import pathlib

import numpy as np
import pytest
from golden.read_cases import (
    IOSTATS_FIELDS,
    assert_io_equal,
    cases,
    ops_digest,
    run_case,
    run_case_batched,
    run_probe_cells,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "read_engine.json").read_text()
)
CASES = {case.name: case for case in cases()}
RTOL = 1e-9


def test_fixture_covers_every_case():
    assert GOLDEN["iostats_fields"] == IOSTATS_FIELDS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


def _expected(name):
    case = CASES[name]
    want = GOLDEN["cases"][name]
    assert want["ops_digest"] == ops_digest(case), (
        f"case {name!r} changed since recording; re-record with "
        "tests/golden/record_read_engine.py"
    )
    return case, want


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_op_matches_golden(name):
    case, want = _expected(name)
    got = run_case(case)
    assert got["results"] == want["results"]
    assert_io_equal(got["io"], want["io"], RTOL)
    np.testing.assert_allclose(got["latency"], want["latency"], rtol=RTOL)


@pytest.mark.parametrize(
    "name", sorted(n for n in CASES if "intersect" not in n)
)
def test_batches_match_golden(name):
    case, want = _expected(name)
    got = run_case_batched(case)
    assert got["results"] == want["results"]
    assert_io_equal(got["io_total"], np.sum(want["io"], axis=0).tolist(),
                    RTOL)
    np.testing.assert_allclose(got["latency"], want["latency"], rtol=RTOL)


def test_run_probes_matches_golden():
    got = run_probe_cells()
    want = GOLDEN["run_probes"]
    assert sorted(got) == sorted(want)
    for cell, stats in want.items():
        mine = got[cell]
        for field in ("n_probes", "hits", "total_matches"):
            assert mine[field] == stats[field], (cell, field)
        assert_io_equal(mine["io"], stats["io"], RTOL)
        assert mine["avg_latency"] == pytest.approx(stats["avg_latency"],
                                                    rel=RTOL), cell
