"""Record the golden violation counts that the scan-small check compares with.

    python3 perfbench/make_golden.py

Runs ``mcsum.scan.scan`` over the benchmark's pool of block seeds and writes
golden_scan.json next to this file.  Re-run it only for a change to the scan
that is meant to change which chains violate which relation.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mcsum.scan import ScanConfig, scan  # noqa: E402

STATES = [3, 10]
TRIALS = 40
POOL = range(1, 513)


def main() -> None:
    blocks = {}
    for seed in POOL:
        result = scan(ScanConfig(state_counts=tuple(STATES), trials=TRIALS, seed=seed))
        if result.hard_failures:
            raise SystemExit(f"seed {seed}: hard failures {result.hard_failures}")
        blocks[str(seed)] = {f"{s.relation}/{s.m}": s.violating_trials for s in result.summaries}
    golden = {"states": STATES, "trials": TRIALS, "blocks": blocks}
    (HERE / "golden_scan.json").write_text(json.dumps(golden, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
