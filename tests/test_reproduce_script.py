import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_results.py"
TABLES = ("open-ended exploration", "goal task", "robustness grid", "random-explorer baseline")


def reproduce(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)


def test_reproduce_script_prints_every_table(tmp_path):
    done = reproduce("--seeds", "3", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for table in TABLES:
        assert f"== {table}" in done.stdout
    assert (tmp_path / "robustness" / "robustness_summary.csv").exists()


def test_reproduce_script_rejects_too_few_seeds(tmp_path):
    out = tmp_path / "results"
    done = reproduce("--seeds", "2", "--out", str(out))
    assert done.returncode == 2
    assert "at least 3" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_a_run_stopped_at_the_cap_is_not_counted_as_full_verification(tmp_path):
    spec = importlib.util.spec_from_file_location("reproduce_results", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    summary = tmp_path / "summary.csv"
    summary.write_text(
        "seed,iterations,final_verified,final_steps\n0,20,16,5000\n1,900,12,90000\n2,30,16,7000\n", encoding="utf-8"
    )
    assert script.open_ended_line("guided", summary, 16) == (
        "  guided    mean iterations to full verification:     25.0 (2 of 3 runs);"
        " stopped at the 900-iteration cap: 1 (verified 12 of 16)"
    )
