"""Experiment runner: open-ended growth curves, goal-directed task efficiency,
robustness sweeps over injected hypothesis errors, and the no-model random
explorer baseline. Emits deterministic CSV files plus a run manifest; trials
may execute concurrently but results merge in seed order so outputs are
byte-stable regardless of scheduling.
"""
from __future__ import annotations

import json
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

from . import __version__
from .agent import GOAL, OPEN_ENDED, AgentConfig, IterationRecord, run_with_state
from .awm import Awm
from .hypotheses import (
    ErrorSpec,
    build_hypothesized_awm,
    empty_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    score_hypothesis,
)
from .policy import LearnerConfig
from .tech_tree import Inventory, StepBudget, TechTree, attempt_collect, attempt_craft, load_tree_file

HYPOTHESIS_KINDS = ("file", "perturb", "empty", "truth")


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str
    tree_path: str
    hypothesis: str = "truth"
    goal: str | None = None
    seeds: tuple[int, ...] = (0,)
    c0: int = 10
    p0: float = 0.2
    p_max: float = 0.95
    tau: float = 3.0
    retry_cap: int = 10
    max_iterations: int = 400
    insert_rates: tuple[float, ...] = ()
    delete_rates: tuple[float, ...] = ()
    distractor: str = "sand"
    workers: int = 1

    def __post_init__(self):
        kind = self.hypothesis.split(":", 1)[0]
        if kind not in HYPOTHESIS_KINDS:
            raise ValueError(f"unknown hypothesis source {self.hypothesis!r}")
        if self.experiment == "robustness":
            if not self.insert_rates or not self.delete_rates:
                raise ValueError("robustness needs a rate grid")
            if len(self.seeds) < 3:
                raise ValueError("robustness needs at least three seeds per cell")
        if not self.seeds:
            raise ValueError("at least one seed required")

    def learner(self) -> LearnerConfig:
        return LearnerConfig(p0=self.p0, p_max=self.p_max, tau=self.tau)


class CurvePoint(NamedTuple):
    iteration: int
    verified: int
    frontier: int
    graph: int
    steps: int


@dataclass(frozen=True)
class TaskResult:
    hypothesis: str
    seed: int
    success: bool
    env_steps_to_goal: int
    iterations: int
    policies_created: int


class BaselinePoint(NamedTuple):
    iteration: int
    discovered: int
    steps: int


def load_spec_tree(spec: ExperimentSpec) -> TechTree:
    return load_tree_file(spec.tree_path)


def build_hypothesis(tree: TechTree, source: str, seed: int, distractor: str = "sand") -> Awm:
    """Materialize a hypothesis source string: truth, empty, perturb:I,D
    (seeded per trial), or file:PATH with a recipe-dictionary document."""
    kind, _, arg = source.partition(":")
    universe = set(tree.items)
    if kind == "truth":
        return ground_truth_awm(tree)
    if kind == "empty":
        return empty_hypothesis(universe)
    if kind == "perturb":
        try:
            insert_s, delete_s = arg.split(",")
            spec = ErrorSpec(float(insert_s), float(delete_s), distractor=distractor, seed=seed)
        except ValueError as exc:
            raise ValueError(f"bad perturb rates {arg!r}") from exc
        return perturb_ground_truth(tree, spec)
    if kind == "file":
        text = Path(arg).read_text(encoding="utf-8")
        parsed = parse_recipe_dict(text)
        entries = normalize_aliases(parsed.entries)
        return build_hypothesized_awm(entries, universe)
    raise ValueError(f"unknown hypothesis source {source!r}")


def _agent_config(spec: ExperimentSpec, mode: str, goal: str | None, seed: int) -> AgentConfig:
    return AgentConfig(
        mode=mode,
        goal=goal,
        c0=spec.c0,
        max_iterations=spec.max_iterations,
        learner=spec.learner(),
        budget=StepBudget(),
        retry_cap=spec.retry_cap,
        seed=seed,
    )


def _map_seeds(fn: Callable[[int], object], seeds: tuple[int, ...], workers: int) -> dict[int, object]:
    if workers <= 1:
        return {seed: fn(seed) for seed in seeds}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {seed: pool.submit(fn, seed) for seed in seeds}
        return {seed: futures[seed].result() for seed in seeds}


def _curve(records: list[IterationRecord]) -> list[CurvePoint]:
    return [
        CurvePoint(r.iteration, r.verified_count, r.frontier_size, r.graph_size, r.cumulative_env_steps)
        for r in records
    ]


def run_open_ended(spec: ExperimentSpec, tree: TechTree | None = None) -> dict[int, list[CurvePoint]]:
    """Per-seed open-ended exploration curves (verified / frontier / graph
    sizes and cumulative steps per iteration)."""
    tree = tree or load_spec_tree(spec)

    def trial(seed: int) -> list[CurvePoint]:
        awm = build_hypothesis(tree, spec.hypothesis, seed, spec.distractor)
        config = _agent_config(spec, OPEN_ENDED, None, seed)
        records, _ = run_with_state(config, tree, awm)
        return _curve(records)

    return _map_seeds(trial, spec.seeds, spec.workers)  # type: ignore[return-value]


def _task_trial(
    spec: ExperimentSpec, tree: TechTree, source: str, label: str, goal: str, seed: int
) -> TaskResult:
    awm = build_hypothesis(tree, source, seed, spec.distractor)
    config = _agent_config(spec, GOAL, goal, seed)
    records, state = run_with_state(config, tree, awm)
    return TaskResult(
        hypothesis=label,
        seed=seed,
        success=goal in state.awm.verified,
        env_steps_to_goal=state.total_env_steps,
        iterations=len(records),
        policies_created=state.bank.count(),
    )


def run_task(spec: ExperimentSpec, tree: TechTree | None = None) -> list[TaskResult]:
    """Goal-directed runs for the spec hypothesis plus, when it is not itself
    the empty ablation, an empty-hypothesis reference on the same seeds."""
    if spec.goal is None:
        raise ValueError("task experiment needs a goal")
    tree = tree or load_spec_tree(spec)
    results: list[TaskResult] = []
    sources = [(spec.hypothesis, "primary")]
    if spec.hypothesis != "empty":
        sources.append(("empty", "empty"))
    for source, label in sources:
        trials = _map_seeds(
            lambda seed, s=source, l=label: _task_trial(spec, tree, s, l, spec.goal, seed),
            spec.seeds,
            spec.workers,
        )
        results.extend(trials[seed] for seed in sorted(trials))
    return results


def run_robustness(spec: ExperimentSpec, tree: TechTree | None = None) -> list[TaskResult]:
    """Grid of goal-directed runs over perturbed ground truth, with
    empty-hypothesis and ground-truth reference rows on the same seeds."""
    tree = tree or load_spec_tree(spec)
    goal = spec.goal or "stone_pickaxe"
    results: list[TaskResult] = []
    for insert_rate in spec.insert_rates:
        for delete_rate in spec.delete_rates:
            source = f"perturb:{insert_rate},{delete_rate}"
            label = f"perturb:{insert_rate:g},{delete_rate:g}"
            trials = _map_seeds(
                lambda seed, s=source, l=label: _task_trial(spec, tree, s, l, goal, seed),
                spec.seeds,
                spec.workers,
            )
            results.extend(trials[seed] for seed in sorted(trials))
    for source in ("empty", "truth"):
        trials = _map_seeds(
            lambda seed, s=source: _task_trial(spec, tree, s, s, goal, seed),
            spec.seeds,
            spec.workers,
        )
        results.extend(trials[seed] for seed in sorted(trials))
    return results


def _baseline_trial(spec: ExperimentSpec, tree: TechTree, seed: int) -> list[BaselinePoint]:
    rng = Random(seed)
    inventory = Inventory()
    budget = StepBudget()
    collectables = tree.collectables()
    craftables = tree.craftables()
    held: set[str] = set()  # a success adds its item; a craft consumes only items already held
    steps = 0
    curve: list[BaselinePoint] = []
    for iteration in range(1, spec.max_iterations + 1):
        if collectables:
            item = collectables[rng.randrange(len(collectables))]
            out = attempt_collect(tree, item, inventory, spec.p0, rng, budget)
            steps += out.steps
            if out.success:
                held.add(item)
        if craftables:
            item = craftables[rng.randrange(len(craftables))]
            out = attempt_craft(tree, item, inventory, budget)
            steps += out.steps
            if out.success:
                held.add(item)
        curve.append(BaselinePoint(iteration, len(held), steps))
        if len(held) == len(tree.items):
            break
    return curve


def run_baseline_random(spec: ExperimentSpec, tree: TechTree | None = None) -> dict[int, list[BaselinePoint]]:
    """The no-model explorer: each iteration makes one random collect attempt
    (fixed success probability, no learning) and one random craft attempt from
    the accumulated inventory, tracking distinct items ever held."""
    tree = tree or load_spec_tree(spec)
    trials = _map_seeds(lambda seed: _baseline_trial(spec, tree, seed), spec.seeds, spec.workers)
    return {seed: trials[seed] for seed in sorted(trials)}  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _steps_stats(group: list[TaskResult]) -> tuple:
    steps = [r.env_steps_to_goal for r in group]
    mean = statistics.mean(steps)
    stdev = statistics.stdev(steps) if len(steps) > 1 else 0.0
    return mean, stdev, min(steps), max(steps)


def emit_results(spec: ExperimentSpec, results, out_dir) -> list[Path]:
    """Write the experiment's CSV files plus a manifest. Re-running an
    identical spec reproduces every byte."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    if spec.experiment == "open_ended":
        summary_rows = []
        for seed in sorted(results):
            path = out / f"curves_seed{seed}.csv"
            _write_csv(path, ["iteration", "verified", "frontier", "graph", "steps"], results[seed])
            files.append(path)
            curve = results[seed]
            last = curve[-1] if curve else CurvePoint(0, 0, 0, 0, 0)
            summary_rows.append((seed, last.iteration, last.verified, last.steps))
        path = out / "summary.csv"
        _write_csv(path, ["seed", "iterations", "final_verified", "final_steps"], summary_rows)
        files.append(path)

    elif spec.experiment in ("task", "robustness"):
        name = f"{spec.experiment}_results.csv"
        rows = [
            (r.hypothesis, r.seed, r.success, r.env_steps_to_goal, r.iterations, r.policies_created)
            for r in results
        ]
        path = out / name
        _write_csv(
            path,
            ["hypothesis", "seed", "success", "env_steps_to_goal", "iterations", "policies_created"],
            rows,
        )
        files.append(path)

        groups: dict[str, list[TaskResult]] = {}
        for r in results:
            groups.setdefault(r.hypothesis, []).append(r)
        empty_mean = _steps_stats(groups["empty"])[0] if "empty" in groups else None
        summary_rows = []
        for label in sorted(groups):
            group = groups[label]
            mean, stdev, lo, hi = _steps_stats(group)
            ratio = empty_mean / mean if empty_mean and mean else 0.0
            summary_rows.append(
                (
                    label,
                    len(group),
                    statistics.mean(1.0 if r.success else 0.0 for r in group),
                    mean,
                    stdev,
                    lo,
                    hi,
                    statistics.mean(r.policies_created for r in group),
                    ratio,
                )
            )
        path = out / f"{spec.experiment}_summary.csv"
        _write_csv(
            path,
            [
                "hypothesis",
                "n_seeds",
                "success_rate",
                "mean_steps",
                "stdev_steps",
                "min_steps",
                "max_steps",
                "mean_policies",
                "steps_ratio_empty_over_this",
            ],
            summary_rows,
        )
        files.append(path)

    elif spec.experiment == "baseline":
        summary_rows = []
        for seed in sorted(results):
            path = out / f"baseline_seed{seed}.csv"
            _write_csv(path, ["iteration", "discovered", "steps"], results[seed])
            files.append(path)
            curve = results[seed]
            last = curve[-1] if curve else BaselinePoint(0, 0, 0)
            summary_rows.append((seed, last.iteration, last.discovered, last.steps))
        path = out / "baseline_summary.csv"
        _write_csv(path, ["seed", "iterations", "discovered", "steps"], summary_rows)
        files.append(path)

    elif spec.experiment == "score":
        report = results
        path = out / "accuracy_report.csv"
        path.write_text(report.to_csv(), encoding="utf-8", newline="\n")
        files.append(path)
        path = out / "accuracy_report.txt"
        path.write_text(report.to_text(), encoding="utf-8", newline="\n")
        files.append(path)

    else:
        raise ValueError(f"unknown experiment {spec.experiment!r}")

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


def run_score(spec: ExperimentSpec, tree: TechTree | None = None, subset: set[str] | None = None):
    tree = tree or load_spec_tree(spec)
    awm = build_hypothesis(tree, spec.hypothesis, spec.seeds[0], spec.distractor)
    return score_hypothesis(awm, tree, subset or set(tree.items))


def spec_from_manifest(path) -> ExperimentSpec:
    """Rebuild the spec recorded in an emitted manifest, so an experiment can
    be reproduced from its own outputs."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    raw = doc["spec"]
    for key in ("seeds", "insert_rates", "delete_rates"):
        raw[key] = tuple(raw[key])
    return ExperimentSpec(**raw)


def run_experiment(spec: ExperimentSpec, out_dir) -> list[Path]:
    """Dispatch an experiment spec and emit its files."""
    tree = load_spec_tree(spec)
    if spec.experiment == "open_ended":
        results = run_open_ended(spec, tree)
    elif spec.experiment == "task":
        results = run_task(spec, tree)
    elif spec.experiment == "robustness":
        results = run_robustness(spec, tree)
    elif spec.experiment == "baseline":
        results = run_baseline_random(spec, tree)
    elif spec.experiment == "score":
        results = run_score(spec, tree)
    else:
        raise ValueError(f"unknown experiment {spec.experiment!r}")
    return emit_results(spec, results, out_dir)
