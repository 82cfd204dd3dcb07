"""Record the golden read-engine digests to ``read_engine.json``.

Usage, from the repo root::

    PYTHONPATH=src python tests/golden/record_read_engine.py

Re-record only on purpose — when a change is *meant* to alter read
results, I/O charging or simulated latency — and say why in the commit.
The file records the commit it was recorded at.
"""

from __future__ import annotations

import json
import pathlib
import subprocess

from read_cases import IOSTATS_FIELDS, cases, run_case, run_probe_cells

OUT = pathlib.Path(__file__).with_name("read_engine.json")


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, cwd=OUT.parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    golden = {
        "recorded_at_commit": _commit(),
        "iostats_fields": IOSTATS_FIELDS,
        "cases": {case.name: run_case(case) for case in cases()},
        "run_probes": run_probe_cells(),
    }
    OUT.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
