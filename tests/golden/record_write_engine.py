"""Record the golden write-engine digests to ``write_engine.json``.

Usage, from the repo root::

    PYTHONPATH=src python tests/golden/record_write_engine.py

Re-record only on purpose — when a change is *meant* to alter write
outcomes, filter state, I/O charging or simulated latency — and say why
in the commit.  The file records the commit it was recorded at.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from golden.read_cases import IOSTATS_FIELDS  # noqa: E402
from golden.record_read_engine import _commit  # noqa: E402
from golden.write_cases import cases, run_case  # noqa: E402

OUT = pathlib.Path(__file__).with_name("write_engine.json")


def main() -> None:
    golden = {
        "recorded_at_commit": _commit(),
        "iostats_fields": IOSTATS_FIELDS,
        "cases": {case.name: run_case(case) for case in cases()},
    }
    OUT.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
