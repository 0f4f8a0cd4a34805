"""Experiment runner: open-ended growth curves, goal-directed task efficiency,
robustness sweeps over injected hypothesis errors, and the no-model random
explorer baseline. Agent trials run through one loop in ascending seed order,
and an experiment reads each recipe document once. The curve runners yield
(seed, curve) pairs in ascending seed order, and the writer puts each curve
on disk as it arrives, so it holds one trial's curve, not every seed's.
Each experiment emits deterministic CSV files and then `manifest.json`,
written last, so a manifest marks a complete run.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import Callable, Iterator, NamedTuple

from . import __version__
from .agent import AgentConfig, AgentState, IterationRecord, run_with_state
from .awm import Awm
from .hypotheses import (
    ParsedEntry,
    build_hypothesized_awm,
    check_rate,
    empty_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    score_hypothesis,
)
from .tech_tree import Inventory, LearnerConfig, TechTree, attempt_collect, attempt_craft, load_tree_file

def _rate_label(rate: float) -> str:
    """A grid rate in its row label: `g` precision, with `-0` written `0`."""
    return f"{rate + 0.0:g}"


def _source_kind(source: str) -> tuple[str, str, tuple[float, float]]:
    """The kind, argument and rates of a hypothesis source: `empty`, `truth`,
    `perturb:I,D`, whose two rates must pass `check_rate`, or `file:PATH`,
    whose path may not be empty. The rates are (0, 0) unless it perturbs."""
    kind, _, arg = source.partition(":")
    if source not in ("empty", "truth") and kind not in ("file", "perturb"):
        raise ValueError(f"unknown hypothesis source {source!r}")
    if kind == "file" and not arg:
        raise ValueError(f"hypothesis source {source!r} names no file")
    rates = (0.0, 0.0)
    if kind == "perturb":
        try:
            insert_s, delete_s = arg.split(",")
            rates = float(insert_s), float(delete_s)
            for rate in rates:
                check_rate(rate)
        except ValueError as exc:
            raise ValueError(f"bad perturb rates {arg!r}") from exc
    return kind, arg, rates


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    tree_path: str
    hypothesis: str = "truth"
    goal: str | None = None
    seeds: tuple[int, ...] = (0,)
    max_iterations: int = AgentConfig.max_iterations
    insert_rates: tuple[float, ...] = ()
    delete_rates: tuple[float, ...] = ()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        _source_kind(self.hypothesis)
        # A spec holds no field its experiment never reads, so a manifest records none.
        if (self.goal is None) == (self.experiment in ("task", "robustness")):
            raise ValueError(f"{self.experiment} experiment {'needs a' if self.goal is None else 'takes no'} goal")
        if self.experiment == "robustness":
            if self.hypothesis != "truth":
                raise ValueError("robustness perturbs the ground truth, so its hypothesis is truth")
            if not self.insert_rates or not self.delete_rates:
                raise ValueError("robustness needs a rate grid")
            if len(set(self.seeds)) < 3:
                raise ValueError("robustness needs at least three seeds per cell")
        elif self.insert_rates or self.delete_rates:
            raise ValueError(f"{self.experiment} experiment takes no rate grid")
        # Every rate is held to `check_rate` here, before any cell runs.
        # A grid cell's row is labelled with `_rate_label`, so two distinct
        # rates must not print alike; a rate listed twice runs once.
        for name, rates in (("insert", self.insert_rates), ("delete", self.delete_rates)):
            labels: dict[str, float] = {}
            for rate in rates:
                check_rate(rate)
                label = _rate_label(rate)
                if label in labels and labels[label] != rate:
                    raise ValueError(f"{name} rates {labels[label]!r} and {rate!r} share the label {label}")
                labels[label] = rate
        if self.experiment == "score" and len(set(self.seeds)) > 1:
            raise ValueError("score builds one hypothesis, so it takes one seed")
        if not self.seeds:
            raise ValueError("at least one seed required")
        # Every experiment is held to the agent's checks, so no manifest
        # records a spec that the agent would reject.
        _agent_config(self, self.seeds[0])


class CurvePoint(NamedTuple):
    iteration: int
    verified: int
    frontier: int
    graph: int
    steps: int


class CurveSummary(NamedTuple):
    """A `summary.csv` row: an open-ended curve's seed and last point."""

    seed: int
    iterations: int
    final_verified: int
    final_steps: int

    @classmethod
    def of(cls, seed: int, last: CurvePoint) -> CurveSummary:
        return cls(seed, last.iteration, last.verified, last.steps)


class TaskResult(NamedTuple):
    hypothesis: str
    seed: int
    success: int  # 1 when the goal was verified, else 0
    env_steps_to_goal: int
    iterations: int
    policies_created: int


class GoalSummary(NamedTuple):
    hypothesis: str
    n_seeds: int
    success_rate: float
    mean_steps: float
    stdev_steps: float
    min_steps: int
    max_steps: int
    mean_policies: float
    steps_ratio_empty_over_this: float


class BaselinePoint(NamedTuple):
    iteration: int
    discovered: int
    steps: int


class BaselineSummary(NamedTuple):
    """A `baseline_summary.csv` row: a random-explorer curve's seed and last point."""

    seed: int
    iterations: int
    discovered: int
    steps: int

    @classmethod
    def of(cls, seed: int, last: BaselinePoint) -> BaselineSummary:
        return cls(seed, last.iteration, last.discovered, last.steps)


def build_hypothesis(
    tree: TechTree, source: str, seed: int, documents: dict[str, list[ParsedEntry]] | None = None
) -> Awm:
    """Materialize a hypothesis source string: truth, empty, perturb:I,D
    (seeded per trial, see `perturb_ground_truth`), or file:PATH with a
    recipe-dictionary document. Every call builds a graph of its own.

    `documents` keeps each file source's normalized entries by path: a runner
    passes one dict to all its trials, so an experiment reads, parses and
    normalizes each document once. The entries are never changed."""
    kind, arg, rates = _source_kind(source)
    if kind == "truth":
        return ground_truth_awm(tree)
    if kind == "empty":
        return empty_hypothesis(set(tree.items))
    if kind == "perturb":
        return perturb_ground_truth(tree, *rates, seed)
    if documents is None:
        documents = {}
    entries = documents.get(arg)
    if entries is None:
        parsed = parse_recipe_dict(Path(arg).read_text(encoding="utf-8"))
        entries = documents[arg] = normalize_aliases(parsed.entries)
    return build_hypothesized_awm(entries, set(tree.items))


def _agent_config(spec: ExperimentSpec, seed: int) -> AgentConfig:
    return AgentConfig(goal=spec.goal, max_iterations=spec.max_iterations, seed=seed)


def _seeds(spec: ExperimentSpec) -> list[int]:
    return sorted(set(spec.seeds))


def _trials(spec: ExperimentSpec, tree: TechTree, sources: list[tuple[str, str]], row: Callable) -> Iterator:
    """Run one trial per (hypothesis source, row label) and distinct seed, in
    ascending seed order, and yield `row(label, seed, records, final state)`.
    The trials share one `documents` dict, so each document is read once.
    Nothing here binds a trial's graph, records or state, so they are freed
    once its row is made, before the next trial runs."""
    documents: dict[str, list[ParsedEntry]] = {}
    for source, label in sources:
        for seed in _seeds(spec):
            config = _agent_config(spec, seed)
            yield row(label, seed, *run_with_state(config, tree, build_hypothesis(tree, source, seed, documents)))


def _curve(records: list[IterationRecord]) -> list[CurvePoint]:
    return [
        CurvePoint(r.iteration, r.verified_count, r.frontier_size, r.graph_size, r.cumulative_env_steps)
        for r in records
    ]


def run_open_ended(spec: ExperimentSpec, tree: TechTree) -> Iterator[tuple[int, list[CurvePoint]]]:
    """Yield each seed's open-ended exploration curve (verified / frontier /
    graph sizes and cumulative steps per iteration) in ascending seed order,
    running its trial only when the curve is asked for."""
    sources = [(spec.hypothesis, spec.hypothesis)]
    return _trials(spec, tree, sources, lambda _label, seed, records, _state: (seed, _curve(records)))


def _goal_trials(spec: ExperimentSpec, tree: TechTree, sources: list[tuple[str, str]]) -> list[TaskResult]:
    """One goal-directed trial per (hypothesis source, row label) and seed."""

    def result(label: str, seed: int, records: list[IterationRecord], state: AgentState) -> TaskResult:
        return TaskResult(
            hypothesis=label,
            seed=seed,
            success=int(spec.goal in state.awm.verified),
            env_steps_to_goal=state.total_env_steps,
            iterations=len(records),
            policies_created=len(state.attempts),
        )

    return list(_trials(spec, tree, sources, result))


def run_task(spec: ExperimentSpec, tree: TechTree) -> list[TaskResult]:
    """Goal-directed runs for the spec hypothesis plus, when it is not itself
    the empty ablation, an empty-hypothesis reference on the same seeds."""
    sources = [(spec.hypothesis, "primary")]
    if spec.hypothesis != "empty":
        sources.append(("empty", "empty"))
    return _goal_trials(spec, tree, sources)


def run_robustness(spec: ExperimentSpec, tree: TechTree) -> list[TaskResult]:
    """Grid of goal-directed runs over perturbed ground truth, with
    empty-hypothesis and ground-truth reference rows on the same seeds."""
    sources = [
        (f"perturb:{insert_rate},{delete_rate}", f"perturb:{_rate_label(insert_rate)},{_rate_label(delete_rate)}")
        for insert_rate in dict.fromkeys(spec.insert_rates)
        for delete_rate in dict.fromkeys(spec.delete_rates)
    ]
    sources += [("empty", "empty"), ("truth", "truth")]
    return _goal_trials(spec, tree, sources)


# The random explorer does not learn: every collect try succeeds with the
# library's p0. Each trial reads this at call time.
BASELINE_CURVE = LearnerConfig(p_max=LearnerConfig.p0)


def _baseline_trial(spec: ExperimentSpec, tree: TechTree, seed: int) -> list[BaselinePoint]:
    rng = Random(seed)
    inventory = Inventory()
    collectables = tree.collectables()
    craftables = tree.craftables()
    held: set[str] = set()  # a success adds its item; a craft consumes only items already held
    steps = 0
    curve: list[BaselinePoint] = []
    for iteration in range(1, spec.max_iterations + 1):
        if collectables:
            item = rng.choice(collectables)
            out = attempt_collect(tree, item, inventory, BASELINE_CURVE, rng)
            steps += out.steps
            if out.success:
                held.add(item)
        if craftables:
            item = rng.choice(craftables)
            out = attempt_craft(tree, item, inventory)
            steps += out.steps
            if out.success:
                held.add(item)
        curve.append(BaselinePoint(iteration, len(held), steps))
        if len(held) == len(tree.items):
            break
    return curve


def run_baseline_random(spec: ExperimentSpec, tree: TechTree) -> Iterator[tuple[int, list[BaselinePoint]]]:
    """The no-model explorer: each iteration makes one random collect attempt
    (fixed success probability, no learning) and one random craft attempt from
    the accumulated inventory, tracking distinct items ever held. Yields each
    seed's curve in ascending seed order, as `run_open_ended` does."""
    return ((seed, _baseline_trial(spec, tree, seed)) for seed in _seeds(spec))


def run_score(spec: ExperimentSpec, tree: TechTree):
    awm = build_hypothesis(tree, spec.hypothesis, spec.seeds[0])
    return score_hypothesis(awm, tree)


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str] | tuple[str, ...], rows: list[tuple]) -> Path:
    """Write one CSV file, making its directory first: an experiment's output
    directory appears with its first file, so a run whose first trial fails
    leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()  # one file write, not one per row
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # ints as str, floats as repr
    path.write_text(text.getvalue(), encoding="utf-8", newline="\n")
    return path


def _curve_writer(point: type, stem: str, summary_name: str, summary: type):
    """Writer of one `<stem>_seed<N>.csv` curve per seed, headed by the
    point's fields, and a summary file of each curve's `summary` row. It
    writes each curve as its runner yields it and keeps only the summary
    rows, so it holds one trial's curve at a time, not every seed's."""
    zero = point._make((0,) * len(point._fields))  # the last point of an empty curve

    def write(spec: ExperimentSpec, curves: Iterator[tuple[int, list]], out: Path) -> list[Path]:
        files, rows = [], []
        for seed, curve in curves:
            files.append(_write_csv(out / f"{stem}_seed{seed}.csv", point._fields, curve))
            rows.append(summary.of(seed, curve[-1] if curve else zero))
        files.append(_write_csv(out / summary_name, summary._fields, rows))
        return files

    return write


def _write_goal_results(spec: ExperimentSpec, results: list[TaskResult], out: Path) -> list[Path]:
    results_path = _write_csv(out / f"{spec.experiment}_results.csv", TaskResult._fields, results)

    groups: dict[str, list[TaskResult]] = {}
    for r in results:
        groups.setdefault(r.hypothesis, []).append(r)
    steps = {label: [r.env_steps_to_goal for r in group] for label, group in groups.items()}
    empty_mean = statistics.mean(steps["empty"]) if "empty" in steps else None
    summary_rows = []
    for label, group in sorted(groups.items()):
        mean = statistics.mean(steps[label])
        summary_rows.append(
            GoalSummary(
                hypothesis=label,
                n_seeds=len(group),
                success_rate=statistics.mean(float(r.success) for r in group),
                mean_steps=mean,
                stdev_steps=statistics.stdev(steps[label]) if len(group) > 1 else 0.0,
                min_steps=min(steps[label]),
                max_steps=max(steps[label]),
                mean_policies=statistics.mean(r.policies_created for r in group),
                steps_ratio_empty_over_this=empty_mean / mean if empty_mean and mean else 0.0,
            )
        )
    summary_path = _write_csv(out / f"{spec.experiment}_summary.csv", GoalSummary._fields, summary_rows)
    return [results_path, summary_path]


def _write_score(spec: ExperimentSpec, report, out: Path) -> list[Path]:
    values = asdict(report)
    row = tuple(str(v) if isinstance(v, int) else f"{v:.6f}" for v in values.values())
    csv_path = _write_csv(out / "accuracy_report.csv", list(values), [row])
    text_path = out / "accuracy_report.txt"
    text_path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8", newline="\n")
    return [csv_path, text_path]


# experiment -> (runner, writer). The runners call `build_hypothesis` and
# `run_with_state`, and `run_experiment` calls `emit_results`, through module
# globals at call time, so a wrapper set on the module (as a tracer does)
# reaches every trial; the table must not hold those three functions.
EXPERIMENTS = {
    "open_ended": (run_open_ended, _curve_writer(CurvePoint, "curves", "summary.csv", CurveSummary)),
    "task": (run_task, _write_goal_results),
    "robustness": (run_robustness, _write_goal_results),
    "baseline": (
        run_baseline_random,
        _curve_writer(BaselinePoint, "baseline", "baseline_summary.csv", BaselineSummary),
    ),
    "score": (run_score, _write_score),
}


def emit_results(spec: ExperimentSpec, results, out_dir) -> list[Path]:
    """Write the experiment's CSV files, then its manifest. A curve
    experiment's `results` yields its curves, so its trials run here, and the
    output directory is made with the first file, after the first trial. The
    manifest is written last: a directory without one holds an incomplete run.
    Re-running an identical spec reproduces every byte."""
    out = Path(out_dir)
    files = EXPERIMENTS[spec.experiment][1](spec, results, out)
    manifest = {
        "experiment": spec.experiment,
        "spec": asdict(spec),
        "version": __version__,
        "files": sorted(p.name for p in files),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    files.append(manifest_path)
    return files


def run_experiment(spec: ExperimentSpec, out_dir) -> list[Path]:
    """Run an experiment spec and emit its files."""
    runner = EXPERIMENTS[spec.experiment][0]
    return emit_results(spec, runner(spec, load_tree_file(spec.tree_path)), out_dir)
