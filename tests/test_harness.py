import csv
import json
import re
import statistics
import tracemalloc

import pytest

from dreamcraft import harness
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import (
    BaselinePoint,
    ExperimentSpec,
    TaskResult,
    build_hypothesis,
    emit_results,
    run_baseline_random,
    run_experiment,
    run_open_ended,
    run_robustness,
    run_task,
)
from dreamcraft.tech_tree import ItemDef, LearnerConfig, RecipeEntry, load_tree_file, make_tree, serialize_tree


def spec_for(experiment, **kw):
    kw.setdefault("tree_path", str(pickaxe16_path()))
    return ExperimentSpec(experiment=experiment, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for("task", goal="log", hypothesis="psychic")
    with pytest.raises(ValueError):
        spec_for("robustness", goal="log", insert_rates=(0.1,), delete_rates=(0.1,), seeds=(0, 1))
    with pytest.raises(ValueError):
        spec_for("task", goal="log", seeds=())
    with pytest.raises(ValueError, match="unknown experiment"):
        spec_for("telepathy")
    grid = dict(goal="log", insert_rates=(0.1,), delete_rates=(0.1,))
    # A goal run names its goal: no goal has a default here.
    with pytest.raises(ValueError, match="task experiment needs a goal"):
        spec_for("task")
    with pytest.raises(ValueError, match="robustness experiment needs a goal"):
        spec_for("robustness", seeds=(0, 1, 2), insert_rates=(0.1,), delete_rates=(0.1,))
    with pytest.raises(ValueError, match="three seeds"):
        spec_for("robustness", seeds=(1, 1, 1), **grid)  # one trial per cell
    with pytest.raises(ValueError, match="three seeds"):
        spec_for("robustness", seeds=(0, 1, 1, 0), **grid)
    spec_for("robustness", seeds=(2, 0, 1), **grid)
    with pytest.raises(ValueError, match="one seed"):
        spec_for("score", seeds=(0, 5))  # score builds the hypothesis of one seed
    spec_for("score", seeds=(5, 5))
    # The agent's checks hold for every experiment.
    with pytest.raises(ValueError, match="max_iterations"):
        spec_for("score", max_iterations=-1)
    # `empty` and `truth` take no argument.
    for source in ("empty:zzz", "truth:", "truth:whatever"):
        with pytest.raises(ValueError, match="unknown hypothesis source"):
            spec_for("score", hypothesis=source)
    # A perturb source's two rates are parsed and checked with the spec,
    # before any trial loads its tree.
    for rates in ("x", "0.1", "1.5,0"):
        with pytest.raises(ValueError, match=f"^bad perturb rates '{re.escape(rates)}'$"):
            spec_for("score", hypothesis=f"perturb:{rates}")
    spec_for("score", hypothesis="perturb:0.2,0.2")


def test_trials_run_once_per_distinct_seed_in_ascending_order(tree):
    seeds = (3, 0, 1, 1)
    base = dict(seeds=seeds, max_iterations=5)
    task = run_task(spec_for("task", goal="log", **base), tree)
    assert [(r.hypothesis, r.seed) for r in task] == [
        (label, seed) for label in ("primary", "empty") for seed in (0, 1, 3)
    ]
    grid = spec_for("robustness", goal="log", insert_rates=(0.0,), delete_rates=(0.1,), **base)
    robustness = run_robustness(grid, tree)
    assert [(r.hypothesis, r.seed) for r in robustness] == [
        (label, seed) for label in ("perturb:0,0.1", "empty", "truth") for seed in (0, 1, 3)
    ]
    assert [seed for seed, _ in run_open_ended(spec_for("open_ended", **base), tree)] == [0, 1, 3]
    assert [seed for seed, _ in run_baseline_random(spec_for("baseline", **base), tree)] == [0, 1, 3]


def test_grid_cells_run_once_per_distinct_rate_in_the_order_first_given(tree):
    grid = spec_for(
        "robustness",
        goal="log",
        seeds=(0, 1, 2),
        insert_rates=(0.0, 0.0),
        delete_rates=(0.1, 1e-7, 0.1),
        max_iterations=5,
    )
    assert [(r.hypothesis, r.seed) for r in run_robustness(grid, tree)] == [
        (label, seed)
        for label in ("perturb:0,0.1", "perturb:0,1e-07", "empty", "truth")
        for seed in (0, 1, 2)
    ]


def test_distinct_rates_that_share_a_grid_label_are_a_spec_error():
    base = dict(goal="log", seeds=(0, 1, 2))
    with pytest.raises(ValueError, match="insert rates 0.1 and 0.1000001 share the label 0.1"):
        spec_for("robustness", insert_rates=(0.1, 0.0, 0.1000001), delete_rates=(0.0,), **base)
    with pytest.raises(ValueError, match="delete rates 0.2 and 0.20000001 share the label 0.2"):
        spec_for("robustness", insert_rates=(0.0,), delete_rates=(0.2, 0.20000001), **base)
    # A rate listed twice, or written two ways, is one rate and one label.
    spec_for("robustness", insert_rates=(0.1, 0.1, 1e-7), delete_rates=(0.0, -0.0, 1e-6), **base)


GRID = dict(insert_rates=(0.1,), delete_rates=(0.1,))
ROBUSTNESS = dict(GRID, goal="log", seeds=(0, 1, 2))


@pytest.mark.parametrize(
    "experiment, fields, message",
    [
        ("open_ended", dict(goal="log"), "open_ended experiment takes no goal"),
        ("baseline", dict(goal="log"), "baseline experiment takes no goal"),
        ("score", dict(goal="log"), "score experiment takes no goal"),
        ("task", dict(goal="log", insert_rates=(0.1,)), "task experiment takes no rate grid"),
        ("open_ended", dict(delete_rates=(0.1,)), "open_ended experiment takes no rate grid"),
        ("score", GRID, "score experiment takes no rate grid"),
        ("robustness", dict(ROBUSTNESS, hypothesis="empty"), "its hypothesis is truth"),
        ("robustness", dict(ROBUSTNESS, hypothesis="perturb:0.1,0.1"), "its hypothesis is truth"),
        ("robustness", dict(ROBUSTNESS, hypothesis="file:/nonexistent"), "its hypothesis is truth"),
    ],
)
def test_a_spec_field_the_experiment_never_reads_is_a_spec_error(experiment, fields, message):
    # Otherwise the manifest would record a value that nothing used.
    with pytest.raises(ValueError, match=message):
        spec_for(experiment, **fields)


def test_a_rate_written_minus_zero_is_labelled_zero(tree):
    grid = spec_for(
        "robustness", goal="log", seeds=(0, 1, 2), insert_rates=(-0.0, 0.0), delete_rates=(0.1,), max_iterations=5
    )
    assert [(r.hypothesis, r.seed) for r in run_robustness(grid, tree)] == [
        (label, seed) for label in ("perturb:0,0.1", "empty", "truth") for seed in (0, 1, 2)
    ]


def test_build_hypothesis_sources(tree, tmp_path):
    truth = build_hypothesis(tree, "truth", seed=0)
    assert len(truth.edges) > 0
    empty = build_hypothesis(tree, "empty", seed=0)
    assert empty.edges == set()
    perturbed = build_hypothesis(tree, "perturb:1.0,0.0", seed=0)
    assert len(perturbed.edges) > len(truth.edges)
    doc = tmp_path / "doc.txt"
    doc.write_text('{"log": {"recipe": []}}')
    from_file = build_hypothesis(tree, f"file:{doc}", seed=0)
    assert from_file.believed_collectable("log")
    with pytest.raises(ValueError):
        build_hypothesis(tree, "perturb:nope", seed=0)


@pytest.mark.parametrize("source", ["file", "file:"])
def test_a_file_source_without_a_path_is_rejected_by_the_spec_and_by_build_hypothesis(tree, source):
    message = f"^hypothesis source '{source}' names no file$"
    with pytest.raises(ValueError, match=message):
        spec_for("score", hypothesis=source)
    with pytest.raises(ValueError, match=message):
        build_hypothesis(tree, source, 0)


@pytest.mark.parametrize(
    "experiment, grid",
    [
        ("task", dict(goal="planks")),
        ("robustness", dict(goal="planks", insert_rates=(0.0, 0.1), delete_rates=(0.1,))),
        ("task", dict(goal="planks", hypothesis=f"file:{llm_fixture_path()}")),
        ("open_ended", dict(hypothesis=f"file:{llm_fixture_path()}")),
    ],
)
def test_every_trial_runs_on_a_graph_of_its_own(tree, monkeypatch, experiment, grid):
    # A run verifies into the graph it is given. The built graphs are kept
    # alive, so no id can be reused by a later trial's graph. An experiment
    # parses a recipe document once, however many trials it builds from it.
    built, ran, parsed = [], [], []
    build, run, parse = harness.build_hypothesis, harness.run_with_state, harness.parse_recipe_dict

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    def recording_run(config, tree, awm):
        records, state = run(config, tree, awm)
        ran.append(id(state.awm))
        return records, state

    monkeypatch.setattr(harness, "build_hypothesis", recording_build)
    monkeypatch.setattr(harness, "run_with_state", recording_run)
    monkeypatch.setattr(harness, "parse_recipe_dict", lambda text: parsed.append(text) or parse(text))
    spec = spec_for(experiment, seeds=(0, 1, 2), max_iterations=20, **grid)
    results = list(harness.EXPERIMENTS[experiment][0](spec, tree))
    assert ran == [id(g) for g in built]
    assert len(set(ran)) == len(results) == len(built)
    assert len(parsed) == spec.hypothesis.startswith("file:")


@pytest.mark.parametrize("source", ["perturb:1.5,0", "perturb:x"])
def test_build_hypothesis_reports_bad_perturb_rates(tree, source):
    with pytest.raises(ValueError, match=f"^bad perturb rates '{source[len('perturb:'):]}'$"):
        build_hypothesis(tree, source, 0)


def test_open_ended_single_iteration_cap():
    spec = spec_for("open_ended", seeds=(0, 1), max_iterations=1)
    curves = dict(run_open_ended(spec, load_tree_file(spec.tree_path)))
    assert set(curves) == {0, 1}
    assert all(len(c) == 1 for c in curves.values())


def test_open_ended_curves_monotone_and_bounded():
    spec = spec_for("open_ended", seeds=(0,), max_iterations=300)
    curve = dict(run_open_ended(spec, load_tree_file(spec.tree_path)))[0]
    verified = [p.verified for p in curve]
    assert verified == sorted(verified)
    assert all(p.frontier <= p.graph for p in curve)
    assert curve[-1].verified == 16


def test_task_single_subgoal_goal():
    spec = spec_for("task", goal="log", seeds=(0, 1, 2), max_iterations=80)
    results = run_task(spec, load_tree_file(spec.tree_path))
    primary = [r for r in results if r.hypothesis == "primary"]
    assert all(r.success for r in primary)
    assert all(r.iterations <= 3 for r in primary)


def test_task_guided_beats_empty():
    spec = spec_for("task", goal="stone_pickaxe", seeds=(0, 1, 2), max_iterations=500)
    results = run_task(spec, load_tree_file(spec.tree_path))
    mean = lambda label: statistics.mean(
        r.env_steps_to_goal for r in results if r.hypothesis == label
    )
    assert mean("empty") / mean("primary") >= 2.0
    by_seed = {
        (r.hypothesis, r.seed): r.policies_created for r in results
    }
    for seed in (0, 1, 2):
        assert by_seed[("primary", seed)] < by_seed[("empty", seed)]


def test_task_glass_longest_chain_succeeds():
    spec = spec_for("task", goal="glass", seeds=(0, 1, 2), max_iterations=300)
    results = run_task(spec, load_tree_file(spec.tree_path))
    assert all(r.success for r in results if r.hypothesis == "primary")


def test_exact_graph_weakly_fastest_of_three(tree):
    from dreamcraft.agent import AgentConfig, run_with_state
    from dreamcraft.datafiles import llm_fixture_path
    from dreamcraft.harness import build_hypothesis

    def mean_glass_iteration(source):
        totals = []
        for seed in range(5):
            awm = build_hypothesis(tree, source, seed)
            records, _ = run_with_state(
                AgentConfig(seed=seed, max_iterations=900), tree, awm
            )
            totals.append(next(r.iteration for r in records if r.newly_verified == "glass"))
        return statistics.mean(totals)

    exact = mean_glass_iteration("truth")
    parsed = mean_glass_iteration(f"file:{llm_fixture_path()}")
    unguided = mean_glass_iteration("empty")
    assert exact <= parsed <= unguided


def test_guided_agent_dominates_random_baseline(tree):
    from dreamcraft.agent import AgentConfig, run_with_state
    from dreamcraft.hypotheses import ground_truth_awm

    guided_done = []
    for seed in range(5):
        records, _ = run_with_state(
            AgentConfig(seed=seed, max_iterations=900),
            tree,
            ground_truth_awm(tree),
        )
        guided_done.append(records[-1].iteration)

    spec = spec_for("baseline", seeds=tuple(range(5)), max_iterations=900)
    curves = dict(run_baseline_random(spec, tree))
    baseline_done = [c[-1].iteration for c in curves.values()]
    assert statistics.mean(guided_done) < statistics.mean(baseline_done)


def test_robustness_row_counting():
    spec = spec_for(
        "robustness",
        goal="stone_pickaxe",
        seeds=(0, 1, 2),
        insert_rates=(0.0, 0.1),
        delete_rates=(0.0, 0.1),
        max_iterations=500,
    )
    results = run_robustness(spec, load_tree_file(spec.tree_path))
    perturbed = [r for r in results if r.hypothesis.startswith("perturb")]
    references = [r for r in results if not r.hypothesis.startswith("perturb")]
    assert len(perturbed) == 2 * 2 * 3
    assert len(references) == 2 * 3  # empty and truth on every seed
    zero_cell = [r for r in results if r.hypothesis == "perturb:0,0"]
    truth_ref = [r for r in results if r.hypothesis == "truth"]
    assert [r.env_steps_to_goal for r in zero_cell] == [r.env_steps_to_goal for r in truth_ref]


def tiny_chain():
    return make_tree(
        [
            ItemDef("log", True),
            ItemDef("planks", False, recipe=(RecipeEntry("log", 1),)),
            ItemDef("table", False, recipe=(RecipeEntry("planks", 2),)),
        ]
    )


def expected_baseline_iterations():
    """Markov oracle for the 3-item chain at p=1: each iteration collects a log
    then flips a fair coin between the two craft actions; the chain state is
    the planks count (capped at the table's requirement)."""
    values = {0: 0.0, 1: 0.0, 2: 0.0}
    for _ in range(10_000):
        nxt = {
            0: 1 + 0.5 * values[1] + 0.5 * values[0],
            1: 1 + 0.5 * values[2] + 0.5 * values[1],
            2: 1 + 0.5 * values[2],  # table flip succeeds and absorbs
        }
        values = nxt
    return values[0]


def flat_curve(monkeypatch, p):
    """Substitute the random explorer's fixed collect probability."""
    monkeypatch.setattr(harness, "BASELINE_CURVE", LearnerConfig(p0=p, p_max=p))


def test_baseline_matches_markov_oracle(tmp_path, monkeypatch):
    tree = tiny_chain()
    path = tmp_path / "chain.json"
    path.write_text(serialize_tree(tree))
    flat_curve(monkeypatch, 1.0)
    spec = spec_for("baseline", tree_path=str(path), seeds=tuple(range(2000)), max_iterations=200)
    curves = dict(run_baseline_random(spec, tree))
    finishing = [c[-1].iteration for c in curves.values()]
    assert all(c[-1].discovered == 3 for c in curves.values())
    expected = expected_baseline_iterations()
    assert expected == pytest.approx(6.0, abs=1e-6)
    assert statistics.mean(finishing) == pytest.approx(expected, abs=0.3)


def test_baseline_zero_probability_flatlines(monkeypatch):
    flat_curve(monkeypatch, 0.0)
    spec = spec_for("baseline", seeds=(0,), max_iterations=25)
    curve = dict(run_baseline_random(spec, load_tree_file(spec.tree_path)))[0]
    assert [p.discovered for p in curve] == [0] * 25


def test_baseline_monotone_discovery(monkeypatch):
    flat_curve(monkeypatch, 0.5)
    spec = spec_for("baseline", seeds=(3,), max_iterations=150)
    curve = dict(run_baseline_random(spec, load_tree_file(spec.tree_path)))[3]
    found = [p.discovered for p in curve]
    assert found == sorted(found)
    steps = [p.steps for p in curve]
    assert steps == sorted(steps)


@pytest.mark.parametrize(
    "experiment, trial, seed_of, stem",
    [
        ("open_ended", "run_with_state", lambda config, tree, awm: config.seed, "curves"),
        ("baseline", "_baseline_trial", lambda spec, tree, seed: seed, "baseline"),
    ],
)
def test_each_curve_is_on_disk_before_the_next_trial_starts(tmp_path, monkeypatch, experiment, trial, seed_of, stem):
    # The output directory does not exist until the first trial has returned.
    out = tmp_path / "out"
    started = []
    original = getattr(harness, trial)

    def recording_trial(*args):
        started.append((seed_of(*args), sorted(p.name for p in out.iterdir()) if out.exists() else None))
        return original(*args)

    monkeypatch.setattr(harness, trial, recording_trial)
    run_experiment(spec_for(experiment, seeds=(4, 0, 2), max_iterations=5), out)
    assert started == [
        (0, None),
        (2, [f"{stem}_seed0.csv"]),
        (4, [f"{stem}_seed0.csv", f"{stem}_seed2.csv"]),
    ]


def test_a_trial_that_raises_leaves_no_manifest(tmp_path, monkeypatch):
    # The manifest is written last, so it marks a complete run.
    calls = []
    run = harness.run_with_state

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("second trial failed")
        return run(*args)

    monkeypatch.setattr(harness, "run_with_state", failing_second)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="second trial failed"):
        run_experiment(spec_for("open_ended", seeds=(0, 1, 2), max_iterations=5), out)
    assert sorted(p.name for p in out.iterdir()) == ["curves_seed0.csv"]


def test_a_curve_run_holds_one_trial_curve_not_every_seeds(tmp_path):
    # Each curve is written as its trial ends, so ten times the seeds does
    # not take ten times the memory.
    def peak(n_seeds):
        spec = spec_for("baseline", seeds=tuple(range(n_seeds)), max_iterations=900)
        tracemalloc.start()
        try:
            run_experiment(spec, tmp_path / str(n_seeds))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(30) < 2 * peak(3)


def test_emit_open_ended_header_contract(tmp_path):
    spec = spec_for("open_ended", seeds=(0,), max_iterations=3)
    files = emit_results(spec, run_open_ended(spec, load_tree_file(spec.tree_path)), tmp_path)
    curve_file = tmp_path / "curves_seed0.csv"
    assert curve_file in files
    header = curve_file.read_text().splitlines()[0]
    assert header == "iteration,verified,frontier,graph,steps"
    assert (tmp_path / "manifest.json").exists()


def test_emit_rerun_byte_identical(tmp_path):
    spec = spec_for("task", goal="wooden_pickaxe", seeds=(0, 1, 2), max_iterations=300)
    first = run_experiment(spec, tmp_path / "a")
    second = run_experiment(spec, tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes(), left.name


def test_goal_summary_stdev_has_the_digits_of_every_supported_python(tmp_path):
    """`statistics.stdev([1000, 1000, 2000])` ends in ...257 on Python 3.10
    and in ...258 on 3.11 and later; the CSV bytes are those of 3.11+."""
    spec = spec_for("task", goal="planks", seeds=(0, 1, 2))
    results = [TaskResult("truth", seed, 1, steps, 1, 1) for seed, steps in enumerate((1000, 1000, 2000))]
    emit_results(spec, results, tmp_path)
    with (tmp_path / "task_summary.csv").open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["stdev_steps"] == "577.3502691896258"


def test_robustness_files_read_back_with_a_csv_reader(tmp_path):
    spec = spec_for(
        "robustness",
        goal="planks",
        seeds=(2, 0, 1),
        insert_rates=(0.0,),
        delete_rates=(0.1, 0.2),
        max_iterations=20,
    )
    run_experiment(spec, tmp_path)
    with (tmp_path / "robustness_results.csv").open(newline="") as fh:
        results = list(csv.DictReader(fh))
    assert all(None not in row for row in results)  # no field beyond the header
    labels = ("perturb:0,0.1", "perturb:0,0.2", "empty", "truth")
    assert [(r["hypothesis"], r["seed"]) for r in results] == [
        (label, str(seed)) for label in labels for seed in (0, 1, 2)
    ]
    with (tmp_path / "robustness_summary.csv").open(newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert all(None not in row for row in summary)
    assert [(r["hypothesis"], r["n_seeds"]) for r in summary] == [(label, "3") for label in sorted(labels)]


def test_run_experiment_score(tmp_path):
    spec = spec_for("score", hypothesis="truth", seeds=(0,))
    files = run_experiment(spec, tmp_path)
    report = (tmp_path / "accuracy_report.txt").read_text()
    assert "recipe_exact_acc=100.0" in report
    assert (tmp_path / "accuracy_report.csv").exists()
    assert len(files) == 3


@pytest.mark.parametrize("hypothesis", ["truth", "perturb:0.2,0.2"])
def test_every_float_column_of_the_score_report_has_six_places(tmp_path, hypothesis):
    # Both hypotheses have whole-number quantity errors (all zero), which
    # must still be written as floats.
    run_experiment(spec_for("score", hypothesis=hypothesis), tmp_path)
    with (tmp_path / "accuracy_report.csv").open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row.pop("n_items") == "16"
    assert all(re.fullmatch(r"-?\d+\.\d{6}", value) for value in row.values()), row
    assert "qty_abs_error=0.0\n" in (tmp_path / "accuracy_report.txt").read_text()


def test_baseline_point_shape():
    assert BaselinePoint(1, 2, 3)._fields == ("iteration", "discovered", "steps")
