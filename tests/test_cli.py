import ast
import json
from pathlib import Path

import pytest

from sstlab import cli
from sstlab.cli import main
from sstlab.fixtures import fig7_instance
from sstlab.instances import emit_instance


SQUARE_DOC = '{"points":[[0,0],[6,0],[6,6],[0,6]],"edges":{"B":[[0,1],[1,2],[2,3]]}}'


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(emit_instance(fig7_instance()), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_comb_path(self, capsys, square_file):
        code, out, _ = run(capsys, "classify", "-i", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_comb"] and not doc["is_star"]
        assert doc["comb"]["spine"] == [0, 1, 2, 3]

    def test_missing_set(self, capsys, square_file):
        code, _, err = run(capsys, "classify", "-i", square_file, "--set", "Z")
        assert code == 2 and "no edge set" in err


class TestEnumerate:
    def test_square(self, capsys, square_file):
        code, out, _ = run(capsys, "enumerate", "-i", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 12 and len(doc["trees"]) == 12

    def test_max_diameter(self, capsys, square_file):
        code, out, _ = run(capsys, "enumerate", "-i", square_file, "--max-diameter", "2")
        assert json.loads(out)["count"] == 4


class TestBlocks:
    def test_blocks_sst(self, capsys, square_file):
        code, out, _ = run(capsys, "blocks", "-i", square_file, "--family", "sst")
        assert code == 0
        assert json.loads(out)["blocks"] is True

    def test_witness_on_miss(self, capsys, fig7_file):
        code, out, _ = run(capsys, "blocks", "-i", fig7_file, "--family", "t4")
        doc = json.loads(out)
        assert doc["blocks"] is False and len(doc["witness"]) == 6

    def test_sss(self, capsys, square_file):
        code, out, _ = run(capsys, "blocks", "-i", square_file, "--family", "sss")
        assert json.loads(out)["blocks"] is True


class TestMinBlockers:
    def test_square(self, capsys, square_file):
        code, out, _ = run(capsys, "minblockers", "-i", square_file, "--family", "sst")
        doc = json.loads(out)
        assert code == 0 and doc["size"] == 3 and doc["count"] == 8


class TestConstruct:
    def test_perles(self, capsys, tmp_path):
        doc = '{"points":[[0,0],[6,0],[6,6],[0,6]],"edges":{"B":[[0,1],[2,3]]}}'
        path = tmp_path / "inst.json"
        path.write_text(doc, encoding="utf-8")
        code, out, _ = run(capsys, "construct", "perles", "-i", str(path))
        result = json.loads(out)
        assert code == 0
        assert result["tree"] == [[0, 2], [0, 3], [1, 2]]
        assert result["noncrossing"] and result["avoids"]
        assert result["diameter"] <= 3

    def test_perles_precondition_error(self, capsys, square_file):
        code, _, err = run(capsys, "construct", "perles", "-i", square_file)
        assert code == 2 and "at most" in err

    def test_pair(self, capsys, tmp_path):
        doc = '{"points":[[0,0],[6,0],[6,6],[0,6]],"edges":{"B":[[0,3],[1,2]]}}'
        path = tmp_path / "inst.json"
        path.write_text(doc, encoding="utf-8")
        code, out, _ = run(capsys, "construct", "pair", "-i", str(path), "--seed", "1")
        result = json.loads(out)
        assert code == 0 and result["avoids"] and result["diameter"] <= 3

    def test_leaf4(self, capsys, tmp_path):
        doc = '{"points":[[0,0],[6,0],[6,6],[0,6]],"edges":{"B":[[0,2],[1,2],[1,3]]}}'
        path = tmp_path / "inst.json"
        path.write_text(doc, encoding="utf-8")
        code, out, _ = run(capsys, "construct", "leaf4", "-i", str(path))
        result = json.loads(out)
        assert code == 0 and result["avoids"] and result["diameter"] <= 4

    def test_no_edge_sets_means_nothing_avoided(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('{"points":[[0,0],[6,0],[6,6],[0,6]]}', encoding="utf-8")
        code, out, _ = run(capsys, "construct", "perles", "-i", str(path))
        result = json.loads(out)
        assert code == 0 and result["diameter"] == 2  # a plain star


class TestVerify:
    def test_fig7_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "fig7")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_flag_rejected_for_fig7(self, capsys):
        code, _, err = run(capsys, "verify", "fig7", "--trials", "5")
        assert code == 2 and "does not take" in err

    def test_construct_fuzz_with_trials(self, capsys):
        code, out, _ = run(capsys, "verify", "construct_fuzz", "--trials", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and len(doc["instances"]) == 5

    def test_max_n_trims_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "prop_size", "--max-n", "4", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"]["max_n"] == 4
        assert all("n5" not in inst["label"] for inst in doc["instances"])

    def test_exit_1_on_assertion_failure(self, capsys, monkeypatch):
        import sstlab.cli as cli
        from sstlab.scenarios import InstanceResult, ScenarioReport

        failing = ScenarioReport(
            scenario="fig7",
            parameters={},
            instances=[InstanceResult("x", [])],
            elapsed_seconds=0.0,
        )
        failing.instances[0].check("doomed", False, "forced")
        monkeypatch.setattr(cli, "run_scenario", lambda name, **kw: failing)
        code, out, _ = run(capsys, "verify", "fig7")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestRender:
    def test_writes_svg(self, capsys, square_file, tmp_path):
        out_path = tmp_path / "out.svg"
        code, out, _ = run(capsys, "render", "-i", square_file, "-o", str(out_path))
        assert code == 0 and out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("<?xml") and "<svg" in text

    def test_set_selection(self, capsys, fig7_file, tmp_path):
        out_path = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "render", "-i", fig7_file, "-o", str(out_path), "--set", "B"
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").count("<line") == 6


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "-i", "/nonexistent.json")
        assert code == 2 and "cannot read" in err

    def test_invalid_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"points":[[0,0],[1,1],[2,2]]}', encoding="utf-8")
        code, _, err = run(capsys, "classify", "-i", str(path))
        assert code == 2 and "collinear" in err

    def test_size_guard_reported(self, capsys, tmp_path):
        from sstlab.instances import emit_instance, random_instance

        path = tmp_path / "big.json"
        path.write_text(emit_instance(random_instance(11, 0)), encoding="utf-8")
        code, _, err = run(capsys, "enumerate", "-i", str(path))
        assert code == 2 and "force" in err


def test_cli_imports_only_public_names():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sstlab")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
