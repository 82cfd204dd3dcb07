"""Router replays against recorded golden digests.

``tests/golden/replay.json`` holds per-op results (tids digested) and
simulated latencies, plus per-request IOStats and clock deltas of every
live shard, for the cases in ``tests/golden/replay_cases.py``, recorded
from the Router before its per-shard phase buffers became one ordered
``apply_many`` call per chunk (the commit is in the file).  Results and
IOStats must match exactly; latencies and clocks to ``rtol=1e-9``, since
the same charges may be summed in a different order.
"""

import json
import pathlib

import numpy as np
import pytest
from golden.read_cases import IOSTATS_FIELDS
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
    assert got["io"] == want["io"]
    np.testing.assert_allclose(got["latency"], want["latency"], rtol=RTOL)
    assert [sorted(c) for c in got["clock"]] == \
        [sorted(c) for c in want["clock"]]
    for mine, theirs in zip(got["clock"], want["clock"]):
        np.testing.assert_allclose([mine[s] for s in sorted(theirs)],
                                   [theirs[s] for s in sorted(theirs)],
                                   rtol=RTOL)
