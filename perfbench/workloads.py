"""The benchmark's two workloads, each a closed loop with one caller.

A workload has four parts:

* ``make_inputs(seed)`` builds every input from the seed.  It is the
  set-up that ``setup_s`` times, together with importing sstlab.
* ``run(inputs)`` is the timed body.  It calls sstlab's public API only
  on the generated inputs.
* ``check(inputs, outputs)`` compares the outputs with references that
  do not share the code path under test and returns ``(name, ok,
  detail)`` triples.  It runs outside the timed body.
* ``fingerprint(outputs)`` is a digest of everything the body returned;
  later passes of one run must reproduce the first pass's digest.

Calls go through module attributes (``enumeration.blocks``) rather than
names bound here, so the tracer can wrap them where this file calls
them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Callable

from sstlab import enumeration, instances, scenarios
from sstlab.classify import comb_certificate
from sstlab.enumeration import Family
from sstlab.graph import Config, EdgeSet, edge_pairs

T3 = Family.trees_diam_at_most(3)
T4 = Family.trees_diam_at_most(4)
SST = Family.spanning_trees()
SSS = Family.spanning_subgraphs()

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# verify_defaults runs the scenarios at seed (--seed mod VERIFY_SEEDS):
# digests.json holds the baseline report digests for exactly these
# scenario seeds, so every run has a reference to compare against.
VERIFY_SEEDS = 32
# run_scenario rejects a seed for scenarios without one (fig7 today).
UNSEEDED_SCENARIOS = frozenset({"fig7"})

# Random instances are drawn until they have RANDOM_HULL hull vertices
# and the commonest crossing count of such instances (crossing pairs
# among all segments).  Family sizes follow these two order-type
# statistics: random n = 9 has 66,611 SSTs at hull 8 and 680,606 at
# hull 3, and at hull 5 from 288,246 (70 crossings) to 211,893 (88).
# Fixing both keeps the work per seed comparable.  The workloads use
# n = 9; n = 7 serves the benchmark's own tests.
RANDOM_HULL = 5
RANDOM_CROSSINGS = {7: 23, 9: 82}

Check = tuple[str, bool, str]


def _digest(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _orient(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def crossings(points) -> int:
    """Number of crossing pairs among all segments of a point set in
    general position."""
    segments = list(combinations(points, 2))
    count = 0
    for i, (a, b) in enumerate(segments):
        for c, d in segments[i + 1:]:
            if (_orient(a, b, c) * _orient(a, b, d) < 0
                    and _orient(c, d, a) * _orient(c, d, b) < 0):
                count += 1
    return count


def _random_config(n: int, rng: random.Random) -> Config:
    while True:
        config = instances.random_instance(n, rng.randrange(2**31)).config()
        if len(config.hull) == RANDOM_HULL and crossings(config.points) == RANDOM_CROSSINGS[n]:
            return config


def _convex_config(n: int, rng: random.Random) -> Config:
    return instances.convex_instance(n, rng.randrange(2**31)).config()


def _parabola_config(n: int, rng: random.Random) -> Config:
    """n points on y = x^2, indexed by x, which is counterclockwise hull
    order.  convex_instance needs minutes at n >= 16, because it waits
    for uniform samples to put that many points on their hull."""
    xs = sorted(rng.sample(range(1001), n))
    return Config.from_points((x, x * x) for x in xs)


def _star(n: int, center: int) -> EdgeSet:
    return EdgeSet.from_pairs(n, ((center, v) for v in range(n) if v != center))


def _hull_path_comb(n: int) -> EdgeSet:
    """Spine 0-1-...-(n-2) along the hull of a convex n-gon, with vertex
    n-1 as the single tooth on the middle spine vertex."""
    spine = [(i, i + 1) for i in range(n - 2)]
    return EdgeSet.from_pairs(n, spine + [((n - 2) // 2, n - 1)])


# -- verify_defaults ---------------------------------------------------------


def _verify_inputs(seed: int) -> dict:
    return {"seed": seed % VERIFY_SEEDS}


def _verify_run(inputs: dict) -> list:
    reports = []
    for name in scenarios.scenario_names():
        if name in UNSEEDED_SCENARIOS:
            reports.append(scenarios.run_scenario(name))
        else:
            reports.append(scenarios.run_scenario(name, seed=inputs["seed"]))
    return reports


def report_digests(reports) -> dict[str, str]:
    """sha256 of each report's timing-free JSON, by scenario name."""
    return {r.scenario: _digest(r.to_dict(include_timing=False)) for r in reports}


def _verify_check(inputs: dict, reports) -> list[Check]:
    out: list[Check] = []
    for report in reports:
        for inst in report.instances:
            for a in inst.assertions:
                out.append((f"{report.scenario}/{inst.label}/{a.name}", a.passed, a.detail))
    recorded = json.loads(DIGESTS_PATH.read_text()).get(str(inputs["seed"]), {})
    got = report_digests(reports)
    for name in sorted(set(recorded) | set(got)):
        out.append(
            (f"{name}/report-digest", recorded.get(name) == got.get(name),
             f"recorded {recorded.get(name)}, got {got.get(name)}")
        )
    return out


def _verify_work(reports) -> dict:
    return {"scenario_instances": sum(len(r.instances) for r in reports)}


# -- enum_blocks_n9 ----------------------------------------------------------

# Step 2's 8-edge sets are drawn from the edges not at vertex 0.  The
# star at 0 is the first member of every family in canonical order, so
# each scan exits at its first member and the step times the start of a
# streamed scan.  Uniform sets exit anywhere from the first member to a
# full stream (0-3 s per seed on random n = 9), which made wall_s follow
# the seed more than the code; step 3's stars time the full stream.
RANDOM_SETS_PER_FAMILY = 3
# Step 3's star forces a full re-stream of each family it is tested on.
# The t4 re-stream is left out: it runs the same generator and diameter
# filter as step 1's enumerate_ssts(max_diameter=4), about 4 s at random
# n = 9, and dropping it shortens a pass enough for a median over more
# passes within one run.
STAR_FAMILIES = (T3, SST, SSS)
COMB_SIZES = (16, 17, 18, 19, 20)


@dataclass(frozen=True)
class EnumCase:
    label: str
    config: Config
    random_sets: tuple[tuple[Family, EdgeSet], ...]
    star: EdgeSet


def _enum_inputs(seed: int) -> dict:
    rng = random.Random(f"enum_blocks_n9:{seed}")
    pairs = [e for e in edge_pairs(9) if 0 not in e]
    cases = []
    for label, config in (("random9", _random_config(9, rng)), ("convex9", _convex_config(9, rng))):
        sets = tuple(
            (family, EdgeSet.from_pairs(9, rng.sample(pairs, 8)))
            for family in (T4, SST)
            for _ in range(RANDOM_SETS_PER_FAMILY)
        )
        cases.append(EnumCase(label, config, sets, _star(9, rng.randrange(9))))
    combs = [(_parabola_config(n, rng), _hull_path_comb(n)) for n in COMB_SIZES]
    return {"cases": cases, "combs": combs}


def _enum_run(inputs: dict) -> dict:
    cases = {}
    for case in inputs["cases"]:
        config = case.config
        t4 = enumeration.enumerate_ssts(config, max_diameter=4)
        sst = enumeration.enumerate_ssts(config)
        random_verdicts = [enumeration.blocks(config, b, f) for f, b in case.random_sets]
        star_verdicts = [enumeration.blocks(config, case.star, f) for f in STAR_FAMILIES]
        cases[case.label] = (t4, sst, random_verdicts, star_verdicts)
    combs = [enumeration.blocks(config, b, SSS, force=True) for config, b in inputs["combs"]]
    return {"cases": cases, "combs": combs}


def catalan_like_sst_count(n: int) -> int:
    """Number of non-crossing spanning trees of n points in convex
    position: C(3n-3, n-1) / (2n-1)."""
    return comb(3 * n - 3, n - 1) // (2 * n - 1)


def tree_radius_at_most_2(n: int, mask: int) -> bool:
    """Whether some vertex of the spanning tree with this edge mask
    reaches every vertex within two steps, which for a tree is the same
    as diameter <= 4.  Bit arithmetic on neighbour masks, so the check
    can filter a quarter million trees in a few seconds and shares no
    code with sstlab's diameter computations."""
    pairs = edge_pairs(n)
    nbrs = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
        mask ^= low
    everyone = (1 << n) - 1
    for center in range(n):
        reach = nbrs[center] | (1 << center)
        near = nbrs[center]
        while near:
            low = near & -near
            reach |= nbrs[low.bit_length() - 1]
            near ^= low
        if reach == everyone:
            return True
    return False


def _enum_check(inputs: dict, out: dict) -> list[Check]:
    checks: list[Check] = []
    for case in inputs["cases"]:
        config, label = case.config, case.label
        t4, sst, random_verdicts, star_verdicts = out["cases"][label]
        if len(config.hull) == config.n:
            want = catalan_like_sst_count(config.n)
            checks.append((f"{label}/sst-count", len(sst) == want, f"{len(sst)} != {want}"))
        filtered = [t for t in sst if tree_radius_at_most_2(config.n, t.mask)]
        checks.append(
            (f"{label}/t4-is-filtered-sst", t4 == filtered, f"{len(t4)} vs {len(filtered)}")
        )
        members = {T4: t4, SST: sst}
        for (family, b), report in zip(case.random_sets, random_verdicts, strict=True):
            avoiding = next((t for t in members[family] if t.isdisjoint(b)), None)
            name = f"{label}/{family.describe()}/{b}"
            checks.append((f"{name}/verdict", report.blocks == (avoiding is None), ""))
            checks.append((f"{name}/witness", report.witness == avoiding, ""))
        for family, report in zip(STAR_FAMILIES, star_verdicts, strict=True):
            checks.append((f"{label}/star-blocks-{family.describe()}", report.blocks, ""))
        # The body does not ask blocks() about t4; the star must still
        # meet every member of the materialised lists.
        for family, trees in members.items():
            meets = all(t.mask & case.star.mask for t in trees)
            checks.append((f"{label}/star-meets-every-{family.describe()}", meets, ""))
    for (config, b), report in zip(inputs["combs"], out["combs"], strict=True):
        name = f"comb-n{config.n}"
        checks.append((f"{name}/is-comb", bool(comb_certificate(config, b)), ""))
        # The paper: stars and combs block every simple spanning subgraph.
        checks.append((f"{name}/blocks-sss", report.blocks, ""))
    return checks


def _masks_digest(trees) -> str:
    return hashlib.sha256(",".join(str(t.mask) for t in trees).encode()).hexdigest()


def _verdict(report) -> list:
    return [report.blocks, None if report.witness is None else report.witness.mask]


def _enum_fingerprint(out: dict) -> dict:
    doc = {"combs": [_verdict(r) for r in out["combs"]]}
    for label, (t4, sst, random_verdicts, star_verdicts) in out["cases"].items():
        doc[label] = {
            "t4": [len(t4), _masks_digest(t4)],
            "sst": [len(sst), _masks_digest(sst)],
            "random": [_verdict(r) for r in random_verdicts],
            "stars": [_verdict(r) for r in star_verdicts],
        }
    return doc


def _enum_work(out: dict) -> dict:
    return {"trees": sum(len(t4) + len(sst) for t4, sst, _, _ in out["cases"].values())}


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list[Check]]
    fingerprint_doc: Callable[[Any], Any]
    work: Callable[[Any], dict]

    def fingerprint(self, outputs) -> str:
        return _digest(self.fingerprint_doc(outputs))


WORKLOADS: dict[str, Workload] = {
    "verify_defaults": Workload(
        _verify_inputs, _verify_run, _verify_check, report_digests, _verify_work
    ),
    "enum_blocks_n9": Workload(
        _enum_inputs, _enum_run, _enum_check, _enum_fingerprint, _enum_work
    ),
}
