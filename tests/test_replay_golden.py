"""Router replays against recorded golden digests.

``tests/golden/replay.json`` holds per-op results (tids digested) and
simulated latencies, plus per-request IOStats and clock deltas of every
live shard, for the cases in ``tests/golden/replay_cases.py``, recorded
from the Router before its per-shard phase buffers became one ordered
``apply_many`` call per chunk (the commit is in the file); the IOStats
columns after ``cache_misses`` and the ``key_comparisons`` values were
appended when simulated time became priced IOStats.  Results and integer
IOStats must match exactly; latencies, clocks and ``key_comparisons`` to
``rtol=1e-9``: latencies and clocks were recorded from a running float
clock and are now priced IOStats deltas, and compares are float sums of
``log2`` terms.
"""

import json
import pathlib

import numpy as np
import pytest
from golden.read_cases import IOSTATS_FIELDS, assert_io_equal
from golden.replay_cases import cases, ops_digest, run_case

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "replay.json").read_text()
)
CASES = {case.name: case for case in cases()}
RTOL = 1e-9


def test_fixture_covers_every_case():
    assert GOLDEN["iostats_fields"] == IOSTATS_FIELDS
    assert sorted(GOLDEN["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_replay_matches_golden(name):
    case = CASES[name]
    want = GOLDEN["cases"][name]
    assert want["ops_digest"] == ops_digest(case), (
        f"case {name!r} changed since recording; re-record with "
        "tests/golden/record_replay.py"
    )
    got = run_case(case)
    assert got["results"] == want["results"]
    assert_io_equal(got["io"], want["io"], RTOL)
    np.testing.assert_allclose(got["latency"], want["latency"], rtol=RTOL)
    assert [sorted(c) for c in got["clock"]] == \
        [sorted(c) for c in want["clock"]]
    for mine, theirs in zip(got["clock"], want["clock"]):
        np.testing.assert_allclose([mine[s] for s in sorted(theirs)],
                                   [theirs[s] for s in sorted(theirs)],
                                   rtol=RTOL)
