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
