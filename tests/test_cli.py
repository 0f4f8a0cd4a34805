import json

from dreamcraft.cli import main
from dreamcraft.datafiles import llm_fixture_path


def test_explore_command(tmp_path, capsys):
    rc = main(
        ["explore", "--seeds", "2", "--max-iterations", "5", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "curves_seed0.csv").exists()
    assert (tmp_path / "curves_seed1.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "open_ended"
    assert manifest["spec"]["seeds"] == [0, 1]
    printed = capsys.readouterr().out
    assert "manifest.json" in printed


def test_task_command_with_seed_list(tmp_path):
    rc = main(
        ["task", "log", "--seeds", "3,5", "--max-iterations", "40", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = (tmp_path / "task_results.csv").read_text().splitlines()
    assert rows[0] == "hypothesis,seed,success,env_steps_to_goal,iterations,policies_created"
    seeds = [row.split(",")[1] for row in rows[1:] if row.startswith("primary")]
    assert seeds == ["3", "5"]


def test_robustness_command(tmp_path):
    rc = main(
        [
            "robustness",
            "--insert-rates", "0,0.1",
            "--delete-rates", "0",
            "--seeds", "3",
            "--max-iterations", "400",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    summary = (tmp_path / "robustness_summary.csv").read_text()
    assert "perturb:0,0" in summary
    assert "empty" in summary and "truth" in summary


def test_robustness_rejects_too_few_seeds(tmp_path, capsys):
    rc = main(["robustness", "--seeds", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "three seeds" in capsys.readouterr().err


def test_baseline_command(tmp_path):
    rc = main(["baseline", "--seeds", "2", "--max-iterations", "30", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "baseline_seed0.csv").read_text().splitlines()[0] == "iteration,discovered,steps"


def test_score_command(tmp_path):
    rc = main(["score", "--hypothesis", "perturb:0,0", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "accuracy_report.txt").read_text()
    assert "collectable_vs_craftable_acc=100.0" in text


def test_parse_command(tmp_path, capsys):
    out = tmp_path / "awm.json"
    rc = main(["parse", str(llm_fixture_path()), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "torch" in err and "brown_mushroom_block" in err
    doc = json.loads(out.read_text())
    assert "glass" in doc["nodes"]
    assert doc["verified"] == []


def test_parse_to_stdout(capsys):
    rc = main(["parse", str(llm_fixture_path())])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "edges" in doc


def test_bad_tree_path_is_exit_2(tmp_path, capsys):
    rc = main(["explore", "--tree", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_hypothesis_is_exit_2(tmp_path, capsys):
    rc = main(["task", "log", "--hypothesis", "vibes", "--out", str(tmp_path)])
    assert rc == 2


def test_from_llm_requires_endpoint(capsys):
    rc = main(["parse", "--from-llm"])
    assert rc == 2
    assert "--endpoint" in capsys.readouterr().err


def test_parse_deep_nesting_is_reported_as_skipped(tmp_path, capsys):
    document = tmp_path / "deep.txt"
    document.write_text('{"log": {"recipe": []},\n "a": ' + "[" * 5000 + "\n}\n", encoding="utf-8")
    rc = main(["parse", str(document), "--out", str(tmp_path / "awm.json")])
    assert rc == 0
    assert "skipped entry 'a' (line 2): entry nested too deeply" in capsys.readouterr().err
    assert "log" in json.loads((tmp_path / "awm.json").read_text())["nodes"]


def test_parse_syntax_error_is_exit_2_with_position(tmp_path, capsys):
    document = tmp_path / "bad.txt"
    document.write_text('{"log": {"recipe": []},\n "sand": ~}\n', encoding="utf-8")
    rc = main(["parse", str(document)])
    assert rc == 2
    assert "unexpected character '~' (line 2, column 10)" in capsys.readouterr().err
