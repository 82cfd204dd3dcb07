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

import copy
import json
import pathlib

import numpy as np
import pytest
from golden.read_cases import IOSTATS_FIELDS, _io_list, assert_io_equal
from golden.write_cases import _apply, cases, run_case, steps, steps_digest
from repro.api import OP_INSERT, OP_READ
from repro.storage import build_stack

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


def test_warm_splitting_chunk_charges_like_the_per_op_loop():
    """Step 181 of the counting case, on a tree bound warm on SSD/SSD
    after the steps before it: one ``apply_many`` chunk charges what
    applying its ops one by one charges.  The chunk's splitting insert
    is a negative of a filter past the trust gate with all its bits
    set; the walk must see that verdict as a negative, so the
    duplicates queued on other leaves are charged before the split
    writes internal nodes and evicts them from the warm pool."""
    case = CASES["bf_pk_counting_fpp1e-3"]
    step_list = steps(case)
    kind, ops = step_list[181]
    assert kind == "apply_many"
    tree = case.build()
    for step in step_list[:181]:
        _apply(tree, step, [])
    loop = copy.deepcopy(tree)
    leaves = tree.n_leaves
    deltas = []
    for index in (tree, loop):
        stack = build_stack(case.storage)
        index.bind(stack, warm=True)
        before = stack.stats.snapshot()
        if index is tree:
            index.apply_many(ops)
        else:
            for code, key, arg in ops:
                if code == OP_READ:
                    index.search(key)
                elif code == OP_INSERT:
                    index.insert(key, arg)
                else:
                    index.range_scan(key, arg)
        deltas.append(_io_list(stack.stats.diff(before)))
    assert tree.n_leaves == loop.n_leaves > leaves
    assert_io_equal(deltas[0], deltas[1], RTOL)
