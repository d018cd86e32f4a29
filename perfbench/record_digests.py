"""Record the verify_defaults reference digests.

For each scenario seed in 0..VERIFY_SEEDS-1 this runs the seven
scenarios as the verify_defaults workload does and stores the sha256 of
each report's timing-free JSON in digests.json.  Run it only on a
commit whose reports are known to be right; the benchmark then flags
any report that differs.

    python3 perfbench/record_digests.py [FIRST LAST]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv) if argv else (0, workloads.VERIFY_SEEDS - 1)
    path = workloads.DIGESTS_PATH
    table = json.loads(path.read_text()) if path.exists() else {}
    for seed in range(first, last + 1):
        start = time.perf_counter()
        reports = workloads.WORKLOADS["verify_defaults"].run({"seed": seed})
        elapsed = time.perf_counter() - start
        if not all(r.passed for r in reports):
            print(f"seed {seed}: a scenario failed; not recorded", file=sys.stderr)
            return 1
        table[str(seed)] = workloads.report_digests(reports)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed} recorded in {elapsed:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
