"""sstlab benchmark: time to a verdict for the exhaustive oracles.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py and BENCHMARK.json): verify_defaults and
enum_blocks_n9.  Every pass runs in a fresh interpreter (worker.py), one
after another, because sstlab's lru_caches are process-global.  A run:

1. runs the first timed pass and then checks its outputs against
   independent references, outside the timed body;
2. with --trace 0, repeats timed passes while their summed body time
   stays within --seconds; each must reproduce the first pass's output
   fingerprint.  With --trace 1, runs one traced pass instead and
   reports the per-layer metrics and the tracing overhead;
3. before the first pass and after every pass, starts SETUP_BATCH
   workers that only import sstlab and build the inputs.  setup_s is
   the median of all of them, spread over the run so that a short
   slow spell of the host moves few samples.

Human-readable lines come first; the last line of standard output is
the JSON result.  The run fails without a result if a worker fails,
for example when src/sstlab is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("verify_defaults", "enum_blocks_n9")
SETUP_BATCH = 4
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class RunError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, deadline: float, check: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)]
    if check:
        cmd.append("--check")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for a {mode} pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} pass did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "sstlab").rglob("*.py"))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups: list[float] = []

    def sample_setups() -> None:
        setups.extend(_worker("setup", workload, seed, deadline)["setup_s"]
                      for _ in range(SETUP_BATCH))

    sample_setups()
    first = _worker("run", workload, seed, deadline, check=True)
    passes = [first]
    sample_setups()
    traced = None
    if trace:
        traced = _worker("trace", workload, seed, deadline)
    else:
        while True:
            walls = [p["wall_s"] for p in passes]
            estimate = max(walls)
            if sum(walls) + estimate > seconds:
                break
            if time.monotonic() + estimate + SETUP_BATCH * max(setups) + 10 > deadline:
                break
            passes.append(_worker("run", workload, seed, deadline))
            sample_setups()
    repeats = passes[1:] + ([traced] if traced else [])
    mismatched = sum(p["fingerprint"] != first["fingerprint"] for p in repeats)
    failures = list(first["failures"])
    if mismatched:
        failures.append(f"{mismatched} repeated passes changed the outputs")
    return {
        "setups": setups + [p["setup_s"] for p in passes],
        "passes": passes,
        "traced": traced,
        "attempted": first["attempted"] + len(repeats),
        "failed": first["failed"] + mismatched,
        "failures": failures,
    }


def end_to_end(result: dict) -> dict:
    walls = [p["wall_s"] for p in result["passes"]]
    q1, med, q3 = _quartiles(walls)
    setup = statistics.median(result["setups"])
    rss = statistics.median(p["peak_rss_mb"] for p in result["passes"])
    print(f"wall_s       {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, {len(walls)} passes)")
    print(f"setup_s      {setup:.4f} s  (median of {len(result['setups'])} set-ups)")
    print(f"peak_rss_mb  {rss:.2f} MB")
    work = result["passes"][0]["work"]
    print("work per pass: " + ", ".join(f"{k} {v}" for k, v in work.items()))
    if "trees" in work:
        print(f"trees_per_s  {work['trees'] / med:.0f} 1/s")
    return {
        "wall_s": {"value": med, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    doc = json.loads((ROOT / result["traced"]["trace"]).read_text())
    values = tracer.layer_metrics(doc)
    untraced = result["passes"][0]["wall_s"]
    values["trace.wall_s"] = doc["wall_s"]
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = doc["wall_s"] - untraced
    print(f"tracing overhead {values['trace.overhead_s']:.3f} s "
          f"({values['trace.overhead_s'] / untraced:.1%} of the untraced pass); "
          f"{len(doc['spans'])} spans in {result['traced']['trace']}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracer.per_layer_metrics()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sstlab").is_dir():
        print(f"no sstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result) if args.trace else end_to_end(result)
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"ops_failed_ratio {result['failed'] / result['attempted']:.6f} ratio  "
          f"({result['failed']} of {result['attempted']} checks failed)")
    print(f"src_sstlab_lines {_src_lines()}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
