#!/usr/bin/env python3
"""Run the four headline experiments at desk scale and print a summary.

Writes CSVs and manifests under the output directory (one subdirectory per
experiment) and ends with a comparison table: exploration speed with and
without guidance, task-step ratios, robustness under injected errors, and the
random-explorer baseline against the open-ended runs per environment step.
"""
import argparse
import csv
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec, run_experiment
from dreamcraft.tech_tree import load_tree_file

MAX_ITERATIONS = 900
STEP_BUDGETS = (50_000, 200_000, 1_000_000)


def _seed_count(text: str) -> int:
    count = int(text)
    if count < 3:
        raise argparse.ArgumentTypeError("need at least 3: the robustness grid runs three seeds per cell")
    return count


def open_ended_line(label: str, summary: Path, n_items: int) -> str:
    """The table line of one open-ended `summary.csv`: the mean iterations of
    the runs that verified all `n_items` tree items and, apart from them, the
    runs that stopped at the iteration cap first."""
    with summary.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    full = [int(row["iterations"]) for row in rows if int(row["final_verified"]) == n_items]
    mean = f"{statistics.mean(full):8.1f}" if full else "     n/a"
    line = f"  {label:9s} mean iterations to full verification: {mean} ({len(full)} of {len(rows)} runs)"
    capped = [row["final_verified"] for row in rows if int(row["final_verified"]) != n_items]
    if capped:
        verified = ", ".join(capped)
        line += f"; stopped at the {MAX_ITERATIONS}-iteration cap: {len(capped)} (verified {verified} of {n_items})"
    return line


def count_within(curve: Path, column: str, budget: int) -> int:
    """A curve file's `column` at its last iteration within `budget`
    cumulative environment steps, 0 if its first iteration is past it."""
    count = 0
    with curve.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if int(row["steps"]) > budget:
                break
            count = int(row[column])
    return count


def discovery_line(label: str, curves: list[Path], column: str) -> str:
    """The table line of one configuration: its mean `column` over the seed
    curves within each of `STEP_BUDGETS` environment steps."""
    means = [statistics.mean(count_within(c, column, budget) for c in curves) for budget in STEP_BUDGETS]
    return f"  {label:26s}" + "".join(f"{m:10.1f}" for m in means)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seeds", type=_seed_count, default=10, help="seeds per configuration, at least 3")
    parser.add_argument("--tree", default=str(pickaxe16_path()))
    args = parser.parse_args()

    seeds = tuple(range(args.seeds))
    out = Path(args.out)
    base = dict(tree_path=args.tree, seeds=seeds)

    print("== open-ended exploration (parsed-document / unguided / exact graph) ==")
    sources = [
        ("guided", f"file:{llm_fixture_path()}"),
        ("unguided", "empty"),
        ("exact", "truth"),
    ]
    n_items = len(load_tree_file(args.tree).items)
    for label, source in sources:
        spec = ExperimentSpec(
            experiment="open_ended", hypothesis=source, max_iterations=MAX_ITERATIONS, **base
        )
        run_experiment(spec, out / f"open_ended_{label}")
        print(open_ended_line(label, out / f"open_ended_{label}" / "summary.csv", n_items))

    print("== goal task: stone_pickaxe (guided vs empty reference) ==")
    spec = ExperimentSpec(
        experiment="task", hypothesis="truth", goal="stone_pickaxe", max_iterations=MAX_ITERATIONS, **base
    )
    run_experiment(spec, out / "task_stone_pickaxe")
    for line in (out / "task_stone_pickaxe" / "task_summary.csv").read_text().splitlines():
        print("  " + line)

    print("== robustness grid (insert x delete) to stone_pickaxe ==")
    spec = ExperimentSpec(
        experiment="robustness",
        hypothesis="truth",
        goal="stone_pickaxe",
        insert_rates=(0.0, 0.1, 0.2),
        delete_rates=(0.0, 0.1, 0.2),
        max_iterations=MAX_ITERATIONS,
        **base,
    )
    run_experiment(spec, out / "robustness")
    for line in (out / "robustness" / "robustness_summary.csv").read_text().splitlines():
        print("  " + line)

    print("== random-explorer baseline ==")
    spec = ExperimentSpec(experiment="baseline", hypothesis="empty", max_iterations=MAX_ITERATIONS, **base)
    run_experiment(spec, out / "baseline")
    for line in (out / "baseline" / "baseline_summary.csv").read_text().splitlines():
        print("  " + line)
    # The random explorer verifies nothing, so its curve counts the items it
    # has ever held; an agent's curve counts the items it has verified.
    print(f"  {'mean items within steps':26s}" + "".join(f"{b:>10,}" for b in STEP_BUDGETS))
    curves = [out / "baseline" / f"baseline_seed{s}.csv" for s in seeds]
    print(discovery_line("random, items ever held", curves, "discovered"))
    for label, _ in sources:
        curves = [out / f"open_ended_{label}" / f"curves_seed{s}.csv" for s in seeds]
        print(discovery_line(f"{label}, items verified", curves, "verified"))

    print(f"\nall outputs under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
