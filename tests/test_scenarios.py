import json
from itertools import combinations

import pytest

import sstlab.scenarios as scenarios
from sstlab import EdgeSet, parse_instance
from sstlab.classify import comb_certificate, star_center
from sstlab.enumeration import MinimumBlockers, enumerate_ssts
from sstlab.instances import convex_instance, random_instance
from sstlab.scenarios import run_scenario, scenario_names


SMALL = dict(convex_sizes=(3, 4, 5), random_count=3, random_sizes=(4, 5), max_n=5)


def _strip_timing(report) -> str:
    return json.dumps(report.to_dict(include_timing=False), sort_keys=True)


class TestRunScenario:
    def test_names(self):
        assert set(scenario_names()) == {
            "prop_size",
            "theorem1",
            "theorem2",
            "theorem3",
            "theorem4",
            "fig7",
            "construct_fuzz",
        }

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("theorem9")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not take"):
            run_scenario("fig7", trials=3)

    @pytest.mark.parametrize("name", ["prop_size", "theorem1", "theorem2", "theorem4"])
    def test_small_suites_pass(self, name):
        report = run_scenario(name, **SMALL)
        assert report.passed
        assert len(report.instances) == 6

    def test_theorem3_small(self):
        report = run_scenario("theorem3", convex_sizes=(3, 4, 5), max_n=5)
        assert report.passed

    def test_fig7(self):
        report = run_scenario("fig7")
        assert report.passed
        names = [a.name for a in report.instances[0].assertions]
        assert "t4-witness-matches-stored" in names
        assert "every-central-edge-candidate-eliminated" in names

    def test_construct_fuzz_small(self):
        report = run_scenario("construct_fuzz", trials=12)
        assert report.passed
        assert len(report.instances) == 12

    def test_determinism_modulo_timing(self):
        a = run_scenario("prop_size", **SMALL)
        b = run_scenario("prop_size", **SMALL)
        assert _strip_timing(a) == _strip_timing(b)

    def test_seed_changes_instances(self):
        a = run_scenario("prop_size", seed=1, **SMALL)
        b = run_scenario("prop_size", seed=2, **SMALL)
        assert _strip_timing(a) != _strip_timing(b)

    def test_report_shape(self):
        doc = run_scenario("fig7").to_dict()
        assert doc["scenario"] == "fig7"
        assert doc["passed"] is True
        assert isinstance(doc["elapsed_seconds"], float)
        for inst in doc["instances"]:
            for assertion in inst["assertions"]:
                assert set(assertion) == {"name", "passed", "detail"}


class TestFailurePayloads:
    def test_counterexample_replays(self, monkeypatch):
        # force a wrong answer so the failure path is exercised
        def wrong(config, family, force=False):
            from sstlab.enumeration import _minimum_blockers_impl

            found = _minimum_blockers_impl(config, family)
            return MinimumBlockers(found.size + 1, found.blockers)

        monkeypatch.setattr(scenarios, "minimum_blockers", wrong)
        report = run_scenario("prop_size", convex_sizes=(4,), random_count=0, max_n=4)
        assert not report.passed
        inst = report.instances[0]
        assert inst.counterexample is not None
        replay = parse_instance(inst.counterexample)
        config = replay.config()
        assert config.n == 4 and "B" in replay.edge_sets

    def test_failure_detail_present(self, monkeypatch):
        def wrong(config, family, force=False):
            from sstlab.enumeration import _minimum_blockers_impl

            found = _minimum_blockers_impl(config, family)
            return MinimumBlockers(found.size + 1, found.blockers)

        monkeypatch.setattr(scenarios, "minimum_blockers", wrong)
        report = run_scenario("prop_size", convex_sizes=(4,), random_count=0, max_n=4)
        failing = [
            a
            for inst in report.instances
            for a in inst.assertions
            if not a.passed
        ]
        assert failing and "expected" in failing[0].detail


class TestClassifiedMasks:
    @pytest.mark.parametrize("make", [random_instance, convex_instance])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_all_subsets_scan(self, make, n, seed):
        # reference: classify every (n-1)-edge subset, not only the SSTs
        config = make(n, seed).config()
        m = n * (n - 1) // 2
        expected = set()
        for combo in combinations(range(m), n - 1):
            b = EdgeSet(n, sum(1 << i for i in combo))
            if star_center(config, b) is not None or comb_certificate(config, b):
                expected.add(b.mask)
        assert scenarios._classified_masks(config) == expected

    @pytest.mark.parametrize("make", [random_instance, convex_instance])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_sst_classification_n7(self, make, seed):
        # every star and comb is a non-crossing spanning tree
        config = make(7, seed).config()
        expected = {
            b.mask
            for b in enumerate_ssts(config)
            if star_center(config, b) is not None or comb_certificate(config, b)
        }
        assert scenarios._classified_masks(config) == expected
