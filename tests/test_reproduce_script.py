import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

from dreamcraft.datafiles import pickaxe16_path
from dreamcraft.harness import ExperimentSpec, run_experiment

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "reproduce_results.py"
TABLES = ("open-ended exploration", "goal task", "robustness grid", "random-explorer baseline")


def reproduce(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)


def test_reproduce_script_prints_every_table(tmp_path):
    done = reproduce("--seeds", "3", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for table in TABLES:
        assert f"== {table}" in done.stdout
    assert "random, items ever held" in done.stdout
    assert (tmp_path / "robustness" / "robustness_summary.csv").exists()


def test_reproduce_script_rejects_too_few_seeds(tmp_path):
    out = tmp_path / "results"
    done = reproduce("--seeds", "2", "--out", str(out))
    assert done.returncode == 2
    assert "at least 3" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_a_run_stopped_at_the_cap_is_not_counted_as_full_verification(tmp_path):
    script = load_script(SCRIPT)
    summary = tmp_path / "summary.csv"
    summary.write_text(
        "seed,iterations,final_verified,final_steps\n0,20,16,5000\n1,900,12,90000\n2,30,16,7000\n", encoding="utf-8"
    )
    assert script.open_ended_line("guided", summary, 16) == (
        "  guided    mean iterations to full verification:     25.0 (2 of 3 runs);"
        " stopped at the 900-iteration cap: 1 (verified 12 of 16)"
    )


def test_discovery_counts_each_curve_at_its_last_iteration_within_the_budget(tmp_path):
    script = load_script(SCRIPT)
    late = tmp_path / "late.csv"  # its first iteration is already past the first budget
    late.write_text("iteration,verified,steps\n1,1,60000\n2,2,250000\n", encoding="utf-8")
    done = tmp_path / "done.csv"  # it ends inside the second budget, so its last count holds
    done.write_text("iteration,verified,steps\n1,3,40000\n2,4,50000\n3,9,150000\n", encoding="utf-8")
    assert script.STEP_BUDGETS == (50_000, 200_000, 1_000_000)
    assert [script.count_within(late, "verified", b) for b in script.STEP_BUDGETS] == [0, 1, 2]
    assert [script.count_within(done, "verified", b) for b in script.STEP_BUDGETS] == [4, 9, 9]
    assert script.discovery_line("both", [late, done], "verified") == f"  {'both':26s}       2.0       5.0       5.5"


def test_plot_curves_reads_only_the_curves_the_manifest_lists(tmp_path):
    # A three-seed run and then a one-seed run into the same directory: the
    # stale curves of seeds 1 and 2 stay on disk but are not plotted.
    plot = load_script(SCRIPTS / "plot_curves.py")
    for seeds in ((0, 1, 2), (0,)):
        spec = ExperimentSpec(experiment="open_ended", tree_path=str(pickaxe16_path()), seeds=seeds, max_iterations=5)
        run_experiment(spec, tmp_path)
    assert len(list(tmp_path.glob("curves_seed*.csv"))) == 3
    with (tmp_path / "curves_seed0.csv").open(newline="") as fh:
        expected = [int(row["verified"]) for row in csv.DictReader(fh)]
    assert plot.load_curves(tmp_path) == [expected]
    assert plot.load_curves(tmp_path / "missing") == []
