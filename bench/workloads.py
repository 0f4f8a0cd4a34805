"""The benchmark's workloads: each is a fixed list of `harness.run_experiment`
calls built from a workload seed, plus the reading of what those calls emit.

Only the inputs that define a workload are set on `ExperimentSpec` (tree,
hypothesis, goal, seeds, rates, iteration cap); every other field keeps its
library default.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec
from dreamcraft.tech_tree import TechTree, load_tree_file, serialize_tree

from inputs import generate_document, generate_tree, pick_goals

SYNTH_ITEMS = 400

# pickaxe16-suite: the desk-scale experiment set of scripts/reproduce_results.py.
PICKAXE_SEEDS = 30
PICKAXE_CAP = 900
ROBUSTNESS_RATES = (0.0, 0.1, 0.2)

# synth400-explore: on each of three trees, one open-ended run from the exact
# graph, capped near the point where the retry-cap defect stalls verification
# (about 500 iterations). With the defect fixed, a run verifies all 400 items
# in 400 iterations, inside the cap. Three trees rather than one cut the
# variance between workload seeds.
EXPLORE_TREES = 3
EXPLORE_CAP = 450

# synth400-llmdoc-task: on each of three trees, goal runs from a generated
# document toward two goals, each goal with its own trial seed, plus three
# short open-ended runs from the same document so that verified_share is defined.
# From the exact graph, and with the retry-cap defect fixed, the goals take
# 14-16 iterations, so TASK_CAP is about twice that. OPEN_CAP is far below the
# item count: those runs cannot meet their objective (see README.md).
# Several trees rather than one cut the variance between workload seeds, and
# one trial per call keeps calls short, which makes their fastest time
# steadier on a shared host.
LLMDOC_TREES = 3
TASK_GOALS = 2
TASK_CAP = 30
OPEN_SEEDS = 3
OPEN_CAP = 50


@dataclass(frozen=True)
class Call:
    out: str  # output subdirectory
    spec: ExperimentSpec
    n_items: int


@dataclass
class Outcome:
    """What one repetition of a workload emitted, read back from its files."""

    attempted: int = 0
    failed: int = 0
    iterations: int = 0
    env_steps: list[int] = field(default_factory=list)
    verified_shares: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _trial_seeds(label: str, seed: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(Random(f"trials:{label}:{seed}").sample(range(10_000), count)))


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def _synth_tree(input_dir: Path, seed: int) -> tuple[Path, TechTree]:
    tree = generate_tree(seed, SYNTH_ITEMS)
    return _write(input_dir / f"tree{seed}.json", serialize_tree(tree)), tree


def pickaxe16_suite(seed: int, input_dir: Path) -> list[Call]:
    tree_path = str(pickaxe16_path())
    n_items = len(load_tree_file(tree_path).items)
    seeds = _trial_seeds("pickaxe16", seed, PICKAXE_SEEDS)
    base = dict(tree_path=tree_path, seeds=seeds, max_iterations=PICKAXE_CAP)
    specs = [
        (f"open_ended_{label}", ExperimentSpec(experiment="open_ended", hypothesis=source, **base))
        for label, source in (("guided", f"file:{llm_fixture_path()}"), ("unguided", "empty"), ("exact", "truth"))
    ]
    specs.append(("task_stone_pickaxe", ExperimentSpec(experiment="task", goal="stone_pickaxe", **base)))
    specs.append(
        (
            "robustness",
            ExperimentSpec(
                experiment="robustness",
                goal="stone_pickaxe",
                insert_rates=ROBUSTNESS_RATES,
                delete_rates=ROBUSTNESS_RATES,
                **base,
            ),
        )
    )
    specs.append(("baseline", ExperimentSpec(experiment="baseline", hypothesis="empty", **base)))
    return [Call(out, spec, n_items) for out, spec in specs]


def synth400_explore(seed: int, input_dir: Path) -> list[Call]:
    calls = []
    for t, tree_seed in enumerate(_trial_seeds("explore-trees", seed, EXPLORE_TREES)):
        path, tree = _synth_tree(input_dir, tree_seed)
        spec = ExperimentSpec(
            experiment="open_ended",
            tree_path=str(path),
            seeds=_trial_seeds("explore", tree_seed, 1),
            max_iterations=EXPLORE_CAP,
        )
        calls.append(Call(f"tree{t}_open_ended", spec, len(tree.items)))
    return calls


def synth400_llmdoc_task(seed: int, input_dir: Path) -> list[Call]:
    calls = []
    for t, tree_seed in enumerate(_trial_seeds("llmdoc-trees", seed, LLMDOC_TREES)):
        path, tree = _synth_tree(input_dir, tree_seed)
        doc = _write(input_dir / f"recipes{tree_seed}.txt", generate_document(tree, tree_seed))
        base = dict(tree_path=str(path), hypothesis=f"file:{doc}")
        n_items = len(tree.items)
        for k, goal in enumerate(pick_goals(tree, TASK_GOALS)):
            spec = ExperimentSpec(
                experiment="task",
                goal=goal,
                seeds=_trial_seeds(f"llmdoc-task-{k}", tree_seed, 1),
                max_iterations=TASK_CAP,
                **base,
            )
            calls.append(Call(f"tree{t}_task_{goal}", spec, n_items))
        for k, trial_seed in enumerate(_trial_seeds("llmdoc-open", tree_seed, OPEN_SEEDS)):
            spec = ExperimentSpec(experiment="open_ended", seeds=(trial_seed,), max_iterations=OPEN_CAP, **base)
            calls.append(Call(f"tree{t}_open_ended{k}", spec, n_items))
    return calls


WORKLOADS = {
    "pickaxe16-suite": pickaxe16_suite,
    "synth400-explore": synth400_explore,
    "synth400-llmdoc-task": synth400_llmdoc_task,
}


def expected_trials(spec: ExperimentSpec) -> int:
    if spec.experiment == "task":
        return len(spec.seeds) * (1 if spec.hypothesis == "empty" else 2)
    if spec.experiment == "robustness":
        return len(spec.seeds) * (len(spec.insert_rates) * len(spec.delete_rates) + 2)
    return len(spec.seeds)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


RESULT_COLUMNS = ("hypothesis", "seed", "success", "env_steps_to_goal", "iterations", "policies_created")


def _result_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a task or robustness results file. The library writes the
    hypothesis label unquoted, and robustness labels such as `perturb:0,0.1`
    contain a comma, so the row is split from the right: only the first
    column may hold a comma."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    if tuple(header.split(",")) != RESULT_COLUMNS:
        raise ValueError(f"unexpected header {header!r}")
    return [dict(zip(RESULT_COLUMNS, line.rsplit(",", len(RESULT_COLUMNS) - 1))) for line in lines]


def _check_curve(rows: list[dict[str, str]], keys: tuple[str, ...], where: str) -> list[str]:
    errors = []
    for key in keys:
        values = [int(r[key]) for r in rows]
        if any(b < a for a, b in zip(values, values[1:])):
            errors.append(f"{where}: {key} decreases")
    if [int(r["iteration"]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append(f"{where}: iterations are not 1..n")
    return errors


def read_outcome(calls: list[Call], out_root: Path) -> Outcome:
    """Count trials and their objectives from the emitted CSV files, and check
    the invariants those files must satisfy. A trial fails if it ends without
    its objective: the goal verified, or every tree item verified (for the
    random baseline: every tree item held at some point)."""
    o = Outcome()
    for call in calls:
        spec, out = call.spec, out_root / call.out
        expected = expected_trials(spec)
        o.attempted += expected
        if not (out / "manifest.json").is_file():
            o.failed += expected
            o.errors.append(f"{call.out}: no output")
            continue
        try:
            _read_call(call, out, o)
        except (OSError, KeyError, ValueError) as exc:
            o.errors.append(f"{call.out}: unreadable output: {exc!r}")
    return o


def _read_call(call: Call, out: Path, o: Outcome) -> None:
    spec, n = call.spec, call.n_items
    if spec.experiment in ("open_ended", "baseline"):
        summary_name, curve_name, count_key = (
            ("summary.csv", "curves_seed{}.csv", "final_verified")
            if spec.experiment == "open_ended"
            else ("baseline_summary.csv", "baseline_seed{}.csv", "discovered")
        )
        summary = _rows(out / summary_name)
        if sorted(int(r["seed"]) for r in summary) != sorted(spec.seeds):
            o.errors.append(f"{call.out}: summary seeds differ from the spec")
        for r in summary:
            curve = _rows(out / curve_name.format(r["seed"]))
            keys = ("verified", "steps") if spec.experiment == "open_ended" else ("discovered", "steps")
            o.errors += _check_curve(curve, keys, f"{call.out} seed {r['seed']}")
            iterations, count = int(r["iterations"]), int(r[count_key])
            if curve and (int(curve[-1]["iteration"]), int(curve[-1][keys[0]])) != (iterations, count):
                o.errors.append(f"{call.out} seed {r['seed']}: summary disagrees with its curve")
            if not 0 <= count <= n or iterations > spec.max_iterations:
                o.errors.append(f"{call.out} seed {r['seed']}: counts out of range")
            o.failed += count < n
            if spec.experiment == "open_ended":
                o.iterations += iterations
                o.env_steps.append(int(r["final_steps"]))
                o.verified_shares.append(count / n)
        return

    rows = _result_rows(out / f"{spec.experiment}_results.csv")
    if len(rows) != expected_trials(spec):
        o.errors.append(f"{call.out}: {len(rows)} result rows, expected {expected_trials(spec)}")
    for r in rows:
        iterations, success = int(r["iterations"]), r["success"]
        if success not in ("0", "1") or not 0 <= iterations <= spec.max_iterations:
            o.errors.append(f"{call.out}: malformed result row {r}")
        o.failed += success != "1"
        o.iterations += iterations
        o.env_steps.append(int(r["env_steps_to_goal"]))


def digest(out_root: Path) -> str:
    """SHA-256 over every emitted file except manifest.json, which records
    absolute input paths."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(path.relative_to(out_root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
