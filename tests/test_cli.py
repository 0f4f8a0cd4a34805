import ast
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import dreamcraft
from dreamcraft import harness
from dreamcraft.cli import main
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec
from dreamcraft.hypotheses import ParsedEntry, serialize_recipe_dict


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


def test_robustness_rejects_rates_that_share_a_label_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["robustness", "--insert-rates", "0.1,0.1000001", "--delete-rates", "0", "--seeds", "3"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "share the label 0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rates", [["--insert-rates", "0,0.1,1.5"], ["--insert-rates", "nan"], ["--delete-rates", "0,-0.1"]]
)
def test_robustness_checks_every_rate_before_any_cell_runs(tmp_path, capsys, monkeypatch, rates):
    calls = []
    run_with_state = harness.run_with_state

    def counted(*args):
        calls.append(args)
        return run_with_state(*args)

    monkeypatch.setattr(harness, "run_with_state", counted)
    out = tmp_path / "out"
    argv = ["robustness", "--insert-rates", "0", "--delete-rates", "0", *rates, "--seeds", "3"]
    assert main([*argv, "--max-iterations", "5", "--out", str(out)]) == 2
    assert "does not lie in [0, 1]" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, written",
    [
        (["robustness", "--goal", "planks", "--seeds", "3", "--max-iterations", "20"], "robustness_summary.csv"),
        (["score", "--hypothesis", "perturb:0.2,0.2"], "accuracy_report.txt"),
    ],
)
def test_perturb_runs_on_a_tree_without_sand(tmp_path, argv, written):
    doc = {"log": {"collectable": True}, "planks": {"collectable": False, "recipe": [{"item": "log", "quantity": 1}]}}
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--tree", str(tree), "--out", str(out)]) == 0
    assert (out / written).exists()


def test_score_rejects_more_than_one_seed(tmp_path, capsys):
    rc = main(["score", "--hypothesis", "perturb:0.3,0.3", "--seeds", "0,5", "--out", str(tmp_path)])
    assert rc == 2
    assert "one seed" in capsys.readouterr().err
    assert not (tmp_path / "accuracy_report.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["baseline", "--max-iterations", "-1"],
        pytest.param(["explore", "--max-iterations", "-1"], id="explore"),
        pytest.param(["task", "log", "--max-iterations", "-1"], id="task"),
        pytest.param(["robustness", "--seeds", "3", "--max-iterations", "-1"], id="robustness"),
        pytest.param(["score", "--hypothesis", "perturb:1.5,0"], id="score"),
    ],
)
def test_every_experiment_rejects_an_invalid_spec_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# The run parameters live in AgentConfig and LearnerConfig alone: the command
# line has no flag for them, and argparse stops at one with its usage error.
@pytest.mark.parametrize("flag", ["--c0", "--p0", "--pmax", "--tau", "--retry-cap"])
def test_a_run_parameter_flag_is_a_usage_error_before_any_output(tmp_path, capsys, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["explore", flag, "4", "--out", str(out)])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not out.exists()


# Spec field -> (common flag, a value other than the default, the value the
# manifest records). The other fields are set by the subcommand: the
# experiment, task's item and robustness's goal and rate grid.
COMMON_FLAGS = {
    "tree_path": ("--tree", None, None),  # a copy of the bundled tree, made per run
    "hypothesis": ("--hypothesis", "empty", "empty"),
    "seeds": ("--seeds", "5,", [5]),
    "max_iterations": ("--max-iterations", "7", 7),
}
SET_BY_SUBCOMMAND = {"experiment", "goal", "insert_rates", "delete_rates"}
WORKLOAD_FIELDS = {
    "experiment", "tree_path", "hypothesis", "goal", "seeds", "max_iterations", "insert_rates", "delete_rates",
}


def test_common_flags_set_every_spec_field_with_the_spec_defaults(tmp_path):
    assert {f.name for f in fields(ExperimentSpec)} == set(COMMON_FLAGS) | SET_BY_SUBCOMMAND == WORKLOAD_FIELDS
    assert main(["explore", "--out", str(tmp_path / "defaults")]) == 0
    recorded = json.loads((tmp_path / "defaults" / "manifest.json").read_text())["spec"]
    assert set(recorded) == WORKLOAD_FIELDS
    expected = ExperimentSpec(experiment="open_ended", tree_path=str(pickaxe16_path()))
    assert recorded == json.loads(json.dumps(asdict(expected)))  # tuples are recorded as lists

    tree = tmp_path / "tree.json"
    shutil.copyfile(pickaxe16_path(), tree)
    for name, (flag, value, expected) in COMMON_FLAGS.items():
        if name == "tree_path":
            value = expected = str(tree)
        out = tmp_path / name
        assert main(["explore", flag, value, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["spec"][name] == expected, flag


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


@pytest.mark.parametrize(
    "argv", [["explore"], ["task", "log"], ["robustness", "--seeds", "3"], ["baseline"], ["score"]]
)
def test_a_tree_with_no_items_is_exit_2_before_any_output(tmp_path, capsys, argv):
    tree = tmp_path / "empty.json"
    tree.write_text("{}", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--tree", str(tree), "--out", str(out)]) == 2
    assert "tree has no items" in capsys.readouterr().err
    assert not out.exists()


def test_task_goal_outside_the_tree_is_exit_2_before_any_output(tmp_path, capsys):
    tree = tmp_path / "log_only.json"
    tree.write_text('{"log": {"collectable": true}}', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["task", "planks", "--tree", str(tree), "--out", str(out)]) == 2
    assert "goal 'planks' is not a tree item" in capsys.readouterr().err
    assert not out.exists()


def test_tree_value_of_the_wrong_type_is_exit_2(tmp_path, capsys):
    doc = json.loads(pickaxe16_path().read_text(encoding="utf-8"))
    doc["planks"]["requires_furnace"] = "false"
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["task", "planks", "--tree", str(tree), "--out", str(out)]) == 2
    assert "'planks': requires_furnace must be a boolean" in capsys.readouterr().err
    assert not out.exists()


CYCLIC_TREE = json.dumps(
    {
        "a": {"collectable": False, "recipe": [{"item": "b", "quantity": 1}]},
        "b": {"collectable": False, "recipe": [{"item": "a", "quantity": 1}]},
    }
)


@pytest.mark.parametrize(
    "text, message",
    [
        (CYCLIC_TREE, "item 'a': dependency cycle involving ['a', 'b']"),
        ("[" * 100_000 + "]" * 100_000, "document nested too deeply"),
        # `$` alone would let a name end in a newline; the whole name must match.
        ('{"log\\n": {"collectable": true}}', "item 'log\\n': name must match [a-z0-9_]+"),
        # A plain JSON reader would keep the second definition without a word.
        ('{"log": {"collectable": true}, "log": {"collectable": true, "yield": 3}}', "repeated key 'log'"),
        (
            '{"log": {"collectable": true, "collectable": false}}',
            "malformed definition for 'log': repeated key 'collectable'",
        ),
    ],
    ids=["cycle", "deep", "newline-name", "repeated-key", "repeated-inner-key"],
)
def test_a_cyclic_or_deeply_nested_tree_is_exit_2(tmp_path, capsys, text, message):
    tree = tmp_path / "tree.json"
    tree.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["explore", "--tree", str(tree), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A name is quoted with its escapes, so a newline in it keeps the error on
# one line. The newline-named tree key is the newline-name case above.
@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ["explore"],
            {"x": {"collectable": False, "recipe": [{"item": "a\nb", "quantity": 1}]}},
            "item 'x': recipe references unknown item 'a\\nb'",
        ),
        (
            ["explore"],
            {"x": {"collectable": False, "recipe": [{"item": "a\nb", "quantity": 0}]}},
            "item 'x': non-positive quantity for 'a\\nb'",
        ),
        (
            ["explore"],
            # Defined after x, so x's recipe is checked before the name a\nb is.
            {
                "x": {"collectable": False, "recipe": [{"item": "a\nb", "quantity": 1}] * 2},
                "a\nb": {"collectable": True},
            },
            "item 'x': duplicate recipe entry 'a\\nb'",
        ),
        (
            ["explore"],
            {"x": {"collectable": True, "required_tool": "a\nb"}},
            "item 'x': required_tool references unknown item 'a\\nb'",
        ),
        (["explore"], {"a\nb": 1}, "definition of 'a\\nb' must be a map"),
        (
            ["explore"],
            {"a\nb": {"collectable": "yes"}},
            "malformed definition for 'a\\nb': collectable must be a boolean, not 'yes'",
        ),
        (
            ["task", "planks"],
            {
                "log": {"collectable": True, "yield": 4},
                "planks": {"collectable": False, "recipe": [{"item": "log", "quantity": 1}]},
            },
            "item 'log': yield only applies to craftables",
        ),
        (
            ["explore"],
            {"a\nb": {"collectable": True, "yeild": 4}},
            "malformed definition for 'a\\nb': unknown field 'yeild'",
        ),
        (["task", "a\nb"], None, "goal 'a\\nb' is not a tree item"),
        (["score", "--hypothesis", "perturb:1.5,0"], None, "bad perturb rates '1.5,0'"),
        # `empty` and `truth` take no argument.
        (["explore", "--hypothesis", "empty:zzz"], None, "unknown hypothesis source 'empty:zzz'"),
        (["score", "--hypothesis", "truth:whatever"], None, "unknown hypothesis source 'truth:whatever'"),
        # A file source names its path.
        (["score", "--hypothesis", "file"], None, "hypothesis source 'file' names no file"),
        (["score", "--hypothesis", "file:"], None, "hypothesis source 'file:' names no file"),
    ],
    ids=[
        "recipe-item", "quantity", "duplicate", "required-tool", "non-map", "malformed",
        "collectable-yield", "unknown-field", "goal", "perturb-rate", "empty-argument", "truth-argument",
        "file-without-colon", "file-without-path",
    ],
)
def test_bad_input_is_exit_2_with_one_line_of_stderr(tmp_path, capsys, argv, doc, message):
    tree = tmp_path / "tree.json"
    if doc is None:
        shutil.copyfile(pickaxe16_path(), tree)
    else:
        tree.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--tree", str(tree), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["required_tool", "item"])
def test_a_tree_field_that_is_not_a_name_is_exit_2(tmp_path, capsys, field):
    doc = {"x": {"collectable": True}, "a": {"collectable": True, "required_tool": ["x"]}}
    if field == "item":
        doc["a"] = {"collectable": False, "recipe": [{"item": ["x"], "quantity": 1}]}
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["explore", "--tree", str(tree), "--out", str(out)]) == 2
    assert f"'a': {field} must be a string" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_hypothesis_is_exit_2(tmp_path, capsys):
    rc = main(["task", "log", "--hypothesis", "vibes", "--out", str(tmp_path)])
    assert rc == 2


def test_a_missing_document_is_exit_2_with_one_line_of_stderr_and_no_output(tmp_path, capsys):
    # The document is read by the first trial, which runs before the output
    # directory is made.
    doc, out = tmp_path / "missing.txt", tmp_path / "out"
    assert main(["explore", "--hypothesis", f"file:{doc}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err and str(doc) in err
    assert not out.exists()


# `robustness` always perturbs the ground truth and `baseline` builds no
# belief graph: neither offers a hypothesis flag it would not read.
@pytest.mark.parametrize("argv", [["robustness", "--seeds", "3"], ["baseline"]])
def test_a_command_that_reads_no_hypothesis_has_no_hypothesis_flag(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--hypothesis", "truth", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --hypothesis truth" in capsys.readouterr().err
    assert not out.exists()


# `score` builds and scores one hypothesis and runs no agent, so it offers no
# iteration cap it would not read.
def test_score_has_no_max_iterations_flag(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["score", "--max-iterations", "7", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --max-iterations 7" in capsys.readouterr().err
    assert not out.exists()


def stdin_of(data: bytes, encoding: str = "utf-8") -> io.TextIOWrapper:
    """A standard input holding `data`, decoded by default with `encoding`
    and, as on POSIX, with no newline translation."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding, newline="\n")


def test_parse_reads_the_document_from_stdin(monkeypatch, capsys):
    assert main(["parse", str(llm_fixture_path())]) == 0
    from_path = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", stdin_of(llm_fixture_path().read_bytes()))
    assert main(["parse", "-"]) == 0
    from_stdin = capsys.readouterr()
    assert json.loads(from_stdin.out) == json.loads(from_path.out)
    assert from_stdin.err == from_path.err
    assert "skipped entry 'torch'" in from_stdin.err


def test_parse_reads_stdin_as_a_path_is_read_whatever_the_locale(tmp_path, monkeypatch, capsys):
    # Non-ASCII names, CRLF line ends and a lone CR before a skipped entry:
    # a path is read as UTF-8 with universal newlines, and so is stdin, even
    # when the locale would decode it as Latin-1.
    data = '{"café": {"recipe": [{"item": "crème", "quantity": 2}]},\r\n\r "bad": 5}\r\n'.encode()
    document = tmp_path / "doc.txt"
    document.write_bytes(data)
    assert main(["parse", str(document), "--out", str(tmp_path / "path.json")]) == 0
    from_path = capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", stdin_of(data, encoding="latin-1"))
    assert main(["parse", "-", "--out", str(tmp_path / "stdin.json")]) == 0
    assert capsys.readouterr().err == from_path == "skipped entry 'bad' (line 3): entry body is not a map\n"
    written = (tmp_path / "stdin.json").read_bytes()
    assert written == (tmp_path / "path.json").read_bytes()
    assert b"\r" not in written
    assert {"parent": "crème", "child": "café", "kind": "ingredient", "quantity": 2} in json.loads(written)["edges"]


def test_parse_missing_input_is_exit_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "out" / "awm.json"
    assert main(["parse", str(tmp_path / "missing.txt"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def test_parse_deep_nesting_is_reported_as_skipped(tmp_path, capsys):
    document = tmp_path / "deep.txt"
    document.write_text('{"log": {"recipe": []},\n "a": ' + "[" * 5000 + "\n}\n", encoding="utf-8")
    rc = main(["parse", str(document), "--out", str(tmp_path / "awm.json")])
    assert rc == 0
    assert "skipped entry 'a' (line 2): entry nested too deeply" in capsys.readouterr().err
    assert "log" in json.loads((tmp_path / "awm.json").read_text())["nodes"]


def test_parse_reports_a_skipped_key_with_a_newline_on_one_line(tmp_path, capsys):
    document = tmp_path / "newline.txt"
    document.write_text('{"log": {"recipe": []},\n "a\\\nb": 5}\n', encoding="utf-8")
    assert main(["parse", str(document), "--out", str(tmp_path / "awm.json")]) == 0
    assert capsys.readouterr().err == "skipped entry 'a\\nb' (line 2): entry body is not a map\n"


def test_parse_syntax_error_is_exit_2_with_position(tmp_path, capsys):
    document = tmp_path / "bad.txt"
    document.write_text('{"log": {"recipe": []},\n "sand": ~}\n', encoding="utf-8")
    rc = main(["parse", str(document)])
    assert rc == 2
    assert "unexpected character '~' (line 2, column 10)" in capsys.readouterr().err


def test_parse_long_chain_document(tmp_path):
    # 1500 items, each made from the one before it: a chain far longer than
    # the interpreter's recursion limit.
    entries = [ParsedEntry("i0000")] + [
        ParsedEntry(f"i{k:04d}", recipe=((f"i{k - 1:04d}", 1),)) for k in range(1, 1500)
    ]
    document = tmp_path / "chain.txt"
    document.write_text(serialize_recipe_dict(entries), encoding="utf-8")
    rc = main(["parse", str(document), "--out", str(tmp_path / "awm.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "awm.json").read_text())
    assert len(doc["edges"]) == 1499
    assert {"parent": "i1498", "child": "i1499", "kind": "ingredient", "quantity": 1} in doc["edges"]


PACKAGE_DIR = Path(dreamcraft.__file__).parent


def test_importing_the_library_loads_no_network_module():
    # dreamcraft.cli imports every module of the package. The standard
    # library's URL opener imports http.client and socket, so it shows here too.
    network = ("http.client", "ssl", "socket")
    probe = f"import sys, dreamcraft.cli; print([m for m in {network!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_the_library_imports_only_the_standard_library():
    imported = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((alias.name.split(".")[0], path.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((node.module.split(".")[0], path.name))
    assert imported
    assert sorted(pair for pair in imported if pair[0] not in sys.stdlib_module_names) == []
