"""One pass of a workload in a fresh interpreter.

sstlab keeps process-global lru_caches (family masks, minimum blockers,
crossing masks), so a pass that shared a process with an earlier one
would time cache hits.  run.py therefore starts this script once per
pass and reads the JSON line it prints last.

    python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED [--check]

setup  times import plus input generation and stops there.
run    also times the workload body with tracing off.
trace  runs the body with the layer functions wrapped and writes the
       spans to .bench_out/ at the repository root.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import sstlab

    if not Path(sstlab.__file__).resolve().is_relative_to(SRC):
        print(f"sstlab imported from {sstlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracing.install(tracer)
    inputs = workload.make_inputs(args.seed)
    setup_s = time.perf_counter() - START
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    start = time.perf_counter()
    outputs = workload.run(inputs)
    wall_s = time.perf_counter() - start
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.unpatch()
        info = sstlab.graph.crossing_masks.cache_info()
        tracer.counters = {
            "graph.crossing_masks.hits": info.hits,
            "graph.crossing_masks.misses": info.misses,
        }
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, workload=args.workload, seed=args.seed, wall_s=wall_s)
        result["trace"] = str(path.relative_to(ROOT))

    result["fingerprint"] = workload.fingerprint(outputs)
    result["work"] = workload.work(outputs)
    if args.check:
        checks = workload.check(inputs, outputs)
        failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        result.update(attempted=len(checks), failed=len(failures), failures=failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
