"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria, tolerances and suite sizes are pinned here:

1. minimum diameter-3 blockers have exactly n-1 edges on convex n=3..8
   and 25 seeded random configurations n=4..7 (< 5 min).
2. minimum spanning-tree blockers coincide exactly with the size-(n-1)
   stars and combs, all of which are non-crossing spanning trees; same
   suite capped at n=7 (< 10 min).
3. minimum diameter-4 blockers all classify star-or-comb; on convex
   configurations minimum diameter-3 blockers all classify comb
   (< 10 min).
4. every star/comb arising in 2-3 leaves no non-crossing edge cover in
   its complement.
5. 1000 seeded cone-sweep instances (n <= 12, up to n-2 avoided edges)
   pass all four post-conditions; for n <= 8 the output appears in the
   diameter-3 enumeration (< 2 min).
6. the stored 7-point counterexample verifies deterministically (< 1 s).
7. enumeration counts: convex 3/4/5 -> 3/12/55 (ballot-number formula),
   triangle plus interior point -> 16.
8. predicate axioms over >= 10^4 seeded random inputs, zero violations.

The default reports of criteria 1-4 and 6, and the 1000-trial report
of criterion 5, are pinned byte for byte by the sha256 digests in
GOLDEN.
"""

import hashlib
import json
import math
import random
import time

from sstlab import (
    Config,
    convex_hull_ccw,
    enumerate_ssts,
    line_meets_open_segment,
    orient,
    segments_cross,
)
from sstlab.scenarios import run_scenario

# sha256 of each report's to_dict(include_timing=False) as compact
# sorted-key JSON: the default report of each scenario, except
# construct_fuzz, pinned at the 1000 trials criterion 5 runs.  A change
# meant to alter a report updates its digest in the same commit and
# says why.
GOLDEN = {
    "prop_size": "43c83a2aceff5f7ebbb4fd23a151dc9a7d25c678459c7fb11b46e3d6261d1b60",
    "theorem1": "d607fa2b668a2966b59f431e687b32cfb7c613a7f3d6c945886fb173ad4bc293",
    "theorem2": "648c1211c40452b67d8c569d59c5c9c21ddb3cc1229758262c1f159a2520b87b",
    "theorem3": "81790c8103e028f68a6b2e0d09eeac032340ca97c921ce07393ba22486b92ea1",
    "theorem4": "54faf2ff2c7703b080957c34ec06979407e6819b81068b2cf78e9a5db6354f01",
    "fig7": "e3db62550b3d979568651e34bf38c9b822d4d21879ba9565852c6c2aba096219",
    "construct_fuzz": "731a3b88897ed6304da77b4e28d3dc3502719f51c52c117cfa07a81ba7adeb7a",
}


def _assert_golden(report) -> None:
    text = json.dumps(
        report.to_dict(include_timing=False), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN[report.scenario], f"{report.scenario} report changed"


def _report(criterion: int, label: str, passed: bool, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n{status} criterion {criterion} ({elapsed:.1f}s): {label}")
    assert passed, f"criterion {criterion} failed: {label}"


def _run(criterion: int, label: str, scenario: str, budget: float, **params) -> None:
    start = time.perf_counter()
    report = run_scenario(scenario, **params)
    elapsed = time.perf_counter() - start
    failures = [
        (inst.label, a.name, a.detail)
        for inst in report.instances
        for a in inst.assertions
        if not a.passed
    ]
    if failures:
        print("failures:", failures[:5])
    _report(criterion, label, report.passed and not failures, elapsed)
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s budget"
    _assert_golden(report)


def test_criterion_1_minimum_t3_blocker_size():
    _run(
        1,
        "diameter-3 blocker size is n-1 across the suite",
        "prop_size",
        budget=300.0,
    )


def test_criterion_2_sst_blockers_equal_stars_and_combs():
    _run(
        2,
        "minimum SST blockers = stars and combs among the SSTs, both directions",
        "theorem1",
        budget=600.0,
    )


def test_criterion_3_t4_and_convex_t3_classification():
    start = time.perf_counter()
    t4 = run_scenario("theorem2")
    convex_t3 = run_scenario("theorem3")
    elapsed = time.perf_counter() - start
    _report(
        3,
        "diameter-4 blockers classify star-or-comb; convex diameter-3 blockers are combs",
        t4.passed and convex_t3.passed,
        elapsed,
    )
    assert elapsed < 600.0, "criterion 3 exceeded 600.0s budget"
    _assert_golden(t4)
    _assert_golden(convex_t3)


def test_criterion_4_stars_and_combs_block_all_spanning_subgraphs():
    _run(
        4,
        "no star/comb complement admits a non-crossing edge cover",
        "theorem4",
        budget=600.0,
    )


def test_criterion_5_cone_sweep_fuzz():
    _run(
        5,
        "1000 cone-sweep instances pass all post-conditions and membership",
        "construct_fuzz",
        budget=120.0,
        trials=1000,
    )


def test_criterion_6_counterexample_fixture():
    start = time.perf_counter()
    report = run_scenario("fig7")
    elapsed = time.perf_counter() - start
    _report(6, "stored 7-point counterexample verifies", report.passed, elapsed)
    assert elapsed < 1.0
    _assert_golden(report)


def test_criterion_7_enumeration_counts():
    from sstlab.instances import convex_instance

    start = time.perf_counter()
    counts = {}
    for n in (3, 4, 5):
        config = convex_instance(n, seed=700 + n).config()
        counts[n] = len(enumerate_ssts(config))
    ballot = {n: math.comb(3 * n - 3, n - 1) // (2 * n - 1) for n in (3, 4, 5)}
    triangle_plus = Config.from_points([(0, 0), (6, 0), (3, 5), (3, 2)])
    cayley = len(enumerate_ssts(triangle_plus))
    ok = counts == {3: 3, 4: 12, 5: 55} and counts == ballot and cayley == 16
    _report(
        7,
        f"convex counts {counts} match 3/12/55 and the ballot formula; "
        f"triangle+interior gives {cayley} = 4^2",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_8_predicate_axioms():
    start = time.perf_counter()
    rng = random.Random(20250809)
    bound = 10**6
    violations = 0

    def pt():
        return (rng.randint(-bound, bound), rng.randint(-bound, bound))

    for _ in range(10_000):
        p, q, r = pt(), pt(), pt()
        if not (orient(p, q, r) == orient(q, r, p) == orient(r, p, q)):
            violations += 1
        if orient(p, q, r) != -orient(p, r, q):
            violations += 1

    for _ in range(10_000):
        a, b, c, d = pt(), pt(), pt(), pt()
        x = segments_cross(a, b, c, d)
        if x != segments_cross(c, d, a, b) or x != segments_cross(b, a, c, d):
            violations += 1
        if x and (a != b) and not line_meets_open_segment(a, b, c, d):
            violations += 1

    hull_checked = 0
    while hull_checked < 400:
        pts = [pt() for _ in range(rng.randint(3, 9))]
        try:
            hull = convex_hull_ccw(pts)
        except Exception:
            continue  # degenerate sample; hull containment needs general position
        hull_checked += 1
        for i in range(len(hull)):
            a, b = pts[hull[i]], pts[hull[(i + 1) % len(hull)]]
            if any(orient(a, b, p) < 0 for p in pts):
                violations += 1

    _report(
        8,
        "orientation cyclicity/antisymmetry, crossing symmetry, hull containment "
        f"over {2 * 10_000 + 400} random inputs, {violations} violations",
        violations == 0,
        time.perf_counter() - start,
    )
