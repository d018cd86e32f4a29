"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sstlab import enumeration, graph, scenarios  # noqa: E402
from sstlab.enumeration import BlockReport  # noqa: E402
from sstlab.graph import EdgeSet, crossing_masks  # noqa: E402

W = workloads.WORKLOADS


@pytest.mark.parametrize("name", sorted(W))
def test_inputs_repeat_for_a_seed(name):
    assert W[name].make_inputs(11) == W[name].make_inputs(11)


def test_enum_inputs_differ_across_seeds():
    assert W["enum_blocks_n9"].make_inputs(11) != W["enum_blocks_n9"].make_inputs(12)


def test_verify_seed_folds_into_recorded_range():
    table = json.loads(workloads.DIGESTS_PATH.read_text())
    assert set(table) == {str(s) for s in range(workloads.VERIFY_SEEDS)}
    assert W["verify_defaults"].make_inputs(7) == {"seed": 7}
    assert W["verify_defaults"].make_inputs(7 + workloads.VERIFY_SEEDS) == {"seed": 7}


def test_crossings_matches_sstlab():
    config = workloads._random_config(9, random.Random(1))
    assert workloads.crossings(config.points) == workloads.RANDOM_CROSSINGS[9]
    assert sum(m.bit_count() for m in crossing_masks(config)) == 2 * workloads.RANDOM_CROSSINGS[9]


def test_radius_test_matches_analyze_tree():
    config = workloads._random_config(7, random.Random(2))
    trees = enumeration.enumerate_ssts(config)
    diameters = {graph.analyze_tree(config, t).diameter for t in trees}
    assert {3, 4, 5} <= diameters
    for t in trees:
        want = graph.analyze_tree(config, t).diameter <= 4
        assert workloads.tree_radius_at_most_2(config.n, t.mask) == want


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def _small_enum():
    rng = random.Random(3)
    cases = []
    for label, config in (("random7", workloads._random_config(7, rng)),
                          ("convex7", workloads._convex_config(7, rng))):
        sets = tuple((f, EdgeSet.from_pairs(7, rng.sample(
            [(u, v) for u in range(7) for v in range(u + 1, 7)], 6)))
            for f in (workloads.T4, workloads.SST) for _ in range(2))
        cases.append(workloads.EnumCase(label, config, sets, workloads._star(7, 2)))
    combs = [(workloads._parabola_config(n, rng), workloads._hull_path_comb(n)) for n in (7, 8)]
    return {"cases": cases, "combs": combs}


def test_enum_check_flags_tampered_verdict_and_count():
    inputs = _small_enum()
    out = W["enum_blocks_n9"].run(inputs)
    assert _failed(W["enum_blocks_n9"].check(inputs, out)) == []

    t4, sst, rand, stars = out["cases"]["convex7"]

    def with_case(value):
        return dict(out, cases=dict(out["cases"], convex7=value))

    dropped = with_case((t4, sst[1:], rand, stars))
    failed = _failed(W["enum_blocks_n9"].check(inputs, dropped))
    assert "convex7/sst-count" in failed and "convex7/t4-is-filtered-sst" in failed

    flipped = [BlockReport(not rand[0].blocks, rand[0].witness)] + rand[1:]
    failed = _failed(W["enum_blocks_n9"].check(inputs, with_case((t4, sst, flipped, stars))))
    assert any(n.endswith("/verdict") for n in failed)

    padded = t4 + [EdgeSet(7, 0)]  # an edge set that misses the star
    failed = _failed(W["enum_blocks_n9"].check(inputs, with_case((padded, sst, rand, stars))))
    assert "convex7/star-meets-every-t4" in failed

    stars_flipped = [BlockReport(False, None)] + stars[1:]
    failed = _failed(W["enum_blocks_n9"].check(inputs, with_case((t4, sst, rand, stars_flipped))))
    assert failed == ["convex7/star-blocks-t3"]

    combs = [BlockReport(False, None)] + out["combs"][1:]
    assert _failed(W["enum_blocks_n9"].check(inputs, dict(out, combs=combs))) == ["comb-n7/blocks-sss"]


def test_verify_check_flags_tampered_report():
    report = scenarios.run_scenario("fig7")
    failed = _failed(workloads._verify_check({"seed": 7}, [report]))
    assert "fig7/report-digest" not in failed  # the other six are absent here

    inst = report.instances[0]
    tampered = dataclasses.replace(inst, assertions=[
        dataclasses.replace(inst.assertions[0], passed=False)] + inst.assertions[1:])
    bad = dataclasses.replace(report, instances=[tampered])
    failed = _failed(workloads._verify_check({"seed": 7}, [bad]))
    assert "fig7/report-digest" in failed
    assert f"fig7/fig7/{inst.assertions[0].name}" in failed


def _span(sid, start, end, parent):
    return {"id": sid, "name": f"s{sid}", "start": start, "end": end, "parent": parent,
            "run_id": "r"}


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),   # overlaps span 2: the union 1..6 covers 5 s of span 0
        _span(2, 3.0, 6.0, 0),
        _span(3, 2.0, 3.0, 1),
        _span(4, 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    leaves = [{"parent": 0, "name": "leaf", "calls": 3, "seconds": 1.5, "useful": 1},
              {"parent": 2, "name": "leaf", "calls": 1, "seconds": 0.5, "useful": 1}]
    own = tracer.self_times(spans, leaves)
    assert own == pytest.approx({0: 10 - 5 - 1 - 1.5, 1: 2.0, 2: 2.5, 3: 1.0, 4: 3.0})


def test_tracer_records_nesting_and_leaf_aggregates(tmp_path):
    t = tracer.Tracer("test")

    def inner(x):
        return x if x % 2 else None

    leaf = t.leaf(inner, "enumeration.noncrossing_edge_cover", lambda r: r is not None)
    outer = t.span(lambda k: [leaf(i) for i in range(k)], "enumeration.enumerate_ssts",
                   lambda a, kw, r: {"members": len(r)})
    top = t.span(lambda: outer(4) + outer(3), lambda: "scenarios.theorem1")
    top()
    path = tmp_path / "trace.json"
    t.dump(path, wall_s=1.0)
    doc = json.loads(path.read_text())
    assert [(s["name"], s["parent"]) for s in doc["spans"]] == [
        ("scenarios.theorem1", None), ("enumeration.enumerate_ssts", 0),
        ("enumeration.enumerate_ssts", 0)]
    m = tracer.layer_metrics(doc)
    assert m["enumeration.enumerate_ssts.calls"] == 2
    assert m["enumeration.enumerate_ssts.members"] == 7
    assert m["enumeration.noncrossing_edge_cover.calls"] == 7
    assert m["enumeration.noncrossing_edge_cover.found_ratio"] == pytest.approx(3 / 7)
    assert m["scenarios.theorem1.total_s"] >= m["scenarios.theorem1.self_s"] >= 0


def test_benchmark_json_matches_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(W) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in tracer.per_layer_metrics()]
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
