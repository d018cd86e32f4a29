"""Verification scenarios: seeded instance suites driven through the
oracles, with machine-readable reports.

Every scenario is deterministic for a fixed seed; reports serialize
with sorted keys so two runs differ at most in the elapsed_seconds
field.  A failing assertion carries a replayable instance payload
holding the points and the offending edge set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .classify import classify, comb_certificate, comb_masks, star_center
from .constructions import (
    boundary_leaf_sst4,
    central_edge_obstruction,
    cone_sweep_sst3,
    find_leaf4_args,
    sample_separated_pair,
    separated_pair_sst3,
)
from .enumeration import (
    Family,
    blocks,
    enumerate_ssts,
    minimum_blockers,
    noncrossing_edge_cover,
)
from .fixtures import FIG7_T4_WITNESS, fig7_instance
from .graph import (
    Config,
    EdgeSet,
    analyze_tree,
    edge_pairs,
    is_noncrossing,
    star,
)
from .instances import Instance, convex_instance, emit_instance, random_instance


@dataclass
class AssertionResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class InstanceResult:
    label: str
    assertions: list[AssertionResult] = field(default_factory=list)
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, ok: bool, detail: str = "", payload: Instance | None = None):
        self.assertions.append(AssertionResult(name, bool(ok), detail))
        if not ok and payload is not None and self.counterexample is None:
            self.counterexample = emit_instance(payload)


@dataclass
class ScenarioReport:
    scenario: str
    parameters: dict
    instances: list[InstanceResult]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "scenario": self.scenario,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "passed": self.passed,
            "instances": [
                {
                    "label": inst.label,
                    "passed": inst.passed,
                    "assertions": [
                        {"name": a.name, "passed": a.passed, "detail": a.detail}
                        for a in inst.assertions
                    ],
                    **(
                        {"counterexample": inst.counterexample}
                        if inst.counterexample
                        else {}
                    ),
                }
                for inst in self.instances
            ],
        }
        if include_timing:
            doc["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        return doc


SST = Family.spanning_trees()
SSS = Family.spanning_subgraphs()
T3 = Family.trees_diam_at_most(3)
T4 = Family.trees_diam_at_most(4)


def _suite(params: dict) -> list[tuple[str, Instance]]:
    """The seeded convex instances, then the seeded random ones (when
    the scenario takes random_count), of at most max_n points."""
    seed, max_n = params["seed"], params["max_n"]
    out = [
        (f"convex-n{k}", convex_instance(k, seed * 100 + k))
        for k in params["convex_sizes"]
        if k <= max_n
    ]
    for i in range(params.get("random_count", 0)):
        n = params["random_sizes"][i % len(params["random_sizes"])]
        if n > max_n:
            continue
        out.append((f"random-{i}-n{n}", random_instance(n, seed * 1000 + 37 * i + n)))
    return out


def _suite_scenario(
    check: Callable[[InstanceResult, Instance, Config], None]
) -> Callable[[dict], list[InstanceResult]]:
    """A scenario that runs check on each instance of the suite."""

    def scenario(params: dict) -> list[InstanceResult]:
        results = []
        for label, inst in _suite(params):
            res = InstanceResult(label)
            check(res, inst, inst.config())
            results.append(res)
        return results

    return scenario


def _payload(instance: Instance, **edge_sets: EdgeSet) -> Instance:
    return Instance(points=instance.points, edge_sets=dict(edge_sets), name="failure")


def _star_or_comb(config: Config, b: EdgeSet) -> bool:
    return star_center(config, b) is not None or bool(comb_certificate(config, b))


def _check_prop_size(res: InstanceResult, inst: Instance, config: Config) -> None:
    found = minimum_blockers(config, T3)
    res.check(
        "t3-min-blocker-size-is-n-1",
        found.size == config.n - 1,
        f"size={found.size}, expected={config.n - 1}",
        _payload(inst, B=found.blockers[0]) if found.blockers else None,
    )


def _classified_masks(config: Config) -> set[int]:
    """Masks of all stars and combs, generated from their definitions
    (the n stars and classify.comb_masks), not filtered out of the SSTs."""
    return {star(config.n, c).mask for c in range(config.n)} | comb_masks(config)


def _check_theorem1(res: InstanceResult, inst: Instance, config: Config) -> None:
    n = config.n
    found = minimum_blockers(config, SST)
    res.check(
        "sst-min-blocker-size-is-n-1",
        found.size == n - 1,
        f"size={found.size}",
    )
    blocker_masks = {b.mask for b in found.blockers}
    classified = _classified_masks(config)
    unclassified = blocker_masks - classified
    res.check(
        "every-blocker-classifies-star-or-comb",
        not unclassified,
        f"{len(unclassified)} blockers classify as neither",
        _payload(inst, B=EdgeSet(n, min(unclassified))) if unclassified else None,
    )
    extra = classified - blocker_masks
    res.check(
        "every-star-or-comb-blocks",
        not extra,
        f"{len(extra)} classified subgraphs are not minimum blockers",
        _payload(inst, B=EdgeSet(n, min(extra))) if extra else None,
    )


def _check_theorem2(res: InstanceResult, inst: Instance, config: Config) -> None:
    found = minimum_blockers(config, T4)
    bad = [b for b in found.blockers if not _star_or_comb(config, b)]
    res.check(
        "t4-min-blockers-classify-star-or-comb",
        not bad,
        f"{len(bad)} of {len(found.blockers)} classify as neither",
        _payload(inst, B=bad[0]) if bad else None,
    )


def _check_theorem3(res: InstanceResult, inst: Instance, config: Config) -> None:
    found = minimum_blockers(config, T3)
    bad = [b for b in found.blockers if not comb_certificate(config, b)]
    res.check(
        "convex-t3-min-blockers-are-combs",
        not bad,
        f"{len(bad)} of {len(found.blockers)} are not combs",
        _payload(inst, B=bad[0]) if bad else None,
    )


def _check_theorem4(res: InstanceResult, inst: Instance, config: Config) -> None:
    """Every star or comb that arises as a minimum blocker leaves no
    non-crossing edge cover in its complement, i.e. it blocks every
    simple spanning subgraph."""
    n = config.n
    candidates: dict[int, EdgeSet] = {}
    if n <= 7:
        for b in minimum_blockers(config, SST).blockers:
            candidates[b.mask] = b
    if len(config.hull) == n:
        for b in minimum_blockers(config, T3).blockers:
            candidates[b.mask] = b
    stars_and_combs = [b for b in candidates.values() if _star_or_comb(config, b)]
    bad = [
        b
        for b in stars_and_combs
        if noncrossing_edge_cover(config, b.complement()) is not None
    ]
    res.check(
        "stars-and-combs-block-all-spanning-subgraphs",
        not bad,
        f"{len(bad)} of {len(stars_and_combs)} complements still have a cover",
        _payload(inst, B=bad[0]) if bad else None,
    )


def _scenario_fig7(params: dict) -> list[InstanceResult]:
    inst = fig7_instance()
    config = inst.config()
    path = inst.edges("B")
    n = config.n
    res = InstanceResult("fig7")

    res.check("path-blocks-t3", blocks(config, path, T3).blocks)
    report = blocks(config, path, T4)
    res.check("path-misses-some-t4", not report.blocks)
    stored = EdgeSet.from_pairs(n, FIG7_T4_WITNESS)
    res.check(
        "t4-witness-matches-stored",
        report.witness == stored,
        f"oracle witness {report.witness}",
    )
    analysis = analyze_tree(config, stored)
    res.check(
        "stored-witness-is-diameter-4-sst",
        analysis.is_spanning_tree
        and analysis.diameter == 4
        and is_noncrossing(config, stored)
        and stored.isdisjoint(path),
    )
    outcome = classify(config, path)
    res.check("path-is-neither-star-nor-comb", not outcome.is_star and not outcome.is_comb)

    eliminated = True
    why = ""
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1:
                ok = (i, j) in path
            elif j == i + 2:
                ok = (i, i + 1) in path and (i + 1, j) in path
            else:
                ok = central_edge_obstruction(config, path, i, j) is not None
            if not ok:
                eliminated = False
                why = f"candidate ({i},{j}) not eliminated"
                break
        if not eliminated:
            break
    res.check("every-central-edge-candidate-eliminated", eliminated, why)
    return [res]


def _check_tree(
    res: InstanceResult,
    prefix: str,
    inst: Instance,
    config: Config,
    tree: EdgeSet,
    avoid: EdgeSet,
    max_diameter: int,
) -> None:
    analysis = analyze_tree(config, tree)
    payload = _payload(inst, B=avoid, T=tree)
    res.check(f"{prefix}-spanning-tree", analysis.is_spanning_tree, payload=payload)
    res.check(f"{prefix}-noncrossing", is_noncrossing(config, tree), payload=payload)
    res.check(
        f"{prefix}-diameter<={max_diameter}",
        analysis.diameter is not None and analysis.diameter <= max_diameter,
        f"diameter={analysis.diameter}",
        payload=payload,
    )
    res.check(f"{prefix}-avoids", tree.isdisjoint(avoid), payload=payload)


def _scenario_construct_fuzz(params: dict) -> list[InstanceResult]:
    seed = params["seed"]
    trials = params["trials"]
    sizes = params["sizes"]
    rng = random.Random(seed)
    results = []
    for t in range(trials):
        n = sizes[t % len(sizes)]
        if n > params["max_n"]:
            continue
        inst = random_instance(n, seed * 10000 + 101 * t + n)
        config = inst.config()
        pairs = edge_pairs(n)
        count = rng.randint(0, n - 2)
        avoid = EdgeSet.from_pairs(n, rng.sample(pairs, count))
        inst = Instance(points=inst.points, edge_sets={"B": avoid}, name=inst.name)
        res = InstanceResult(f"fuzz-{t}-n{n}")

        tree = cone_sweep_sst3(config, avoid)
        _check_tree(res, "cone", inst, config, tree, avoid, 3)
        if n <= 8:
            members = enumerate_ssts(config, max_diameter=3)
            res.check(
                "cone-in-enumeration",
                tree in members,
                payload=_payload(inst, B=avoid, T=tree),
            )

        pair = sample_separated_pair(config, avoid, rng)
        if pair is None:
            res.check("pair-sampled", True, "no valid pair found; skipped")
        else:
            res.check("pair-sampled", True, f"a={pair.a}, b={pair.b}")
            tree = separated_pair_sst3(config, avoid, pair)
            _check_tree(res, "pair", inst, config, tree, avoid, 3)

        args = find_leaf4_args(config, avoid)
        if args is None:
            res.check("leaf4-applicable", True, "no valid tip/anchor; skipped")
        else:
            tip, anchor = args
            res.check("leaf4-applicable", True, f"tip={tip}, anchor={anchor}")
            tree = boundary_leaf_sst4(config, avoid, tip, anchor)
            _check_tree(res, "leaf4", inst, config, tree, avoid, 4)

        results.append(res)
    return results


_DEFAULTS: dict[str, dict] = {
    "prop_size": dict(
        seed=7, convex_sizes=(3, 4, 5, 6, 7, 8), random_count=25,
        random_sizes=(4, 5, 6, 7), max_n=8,
    ),
    "theorem1": dict(
        seed=7, convex_sizes=(3, 4, 5, 6, 7), random_count=25,
        random_sizes=(4, 5, 6, 7), max_n=7,
    ),
    "theorem2": dict(
        seed=7, convex_sizes=(3, 4, 5, 6, 7), random_count=25,
        random_sizes=(4, 5, 6, 7), max_n=7,
    ),
    "theorem3": dict(seed=7, convex_sizes=(3, 4, 5, 6, 7, 8), max_n=8),
    "theorem4": dict(
        seed=7, convex_sizes=(3, 4, 5, 6, 7, 8), random_count=25,
        random_sizes=(4, 5, 6, 7), max_n=8,
    ),
    "fig7": dict(),
    "construct_fuzz": dict(seed=7, trials=100, sizes=tuple(range(3, 13)), max_n=12),
}

_SCENARIOS: dict[str, Callable[[dict], list[InstanceResult]]] = {
    "prop_size": _suite_scenario(_check_prop_size),
    "theorem1": _suite_scenario(_check_theorem1),
    "theorem2": _suite_scenario(_check_theorem2),
    "theorem3": _suite_scenario(_check_theorem3),
    "theorem4": _suite_scenario(_check_theorem4),
    "fig7": _scenario_fig7,
    "construct_fuzz": _scenario_construct_fuzz,
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_SCENARIOS)


def run_scenario(name: str, **overrides) -> ScenarioReport:
    """Run a named verification scenario; unknown names and parameters
    raise ValueError."""
    if name not in _SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(_SCENARIOS)}"
        )
    params = dict(_DEFAULTS[name])
    given = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(given) - set(params)
    if unknown:
        raise ValueError(f"scenario {name!r} does not take parameters {sorted(unknown)}")
    params.update(given)
    start = time.perf_counter()
    instances = _SCENARIOS[name](params)
    elapsed = time.perf_counter() - start
    return ScenarioReport(
        scenario=name,
        parameters={
            k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()
        },
        instances=instances,
        elapsed_seconds=elapsed,
    )
