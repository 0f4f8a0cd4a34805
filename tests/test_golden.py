"""Golden output: a fixed set of specs on the bundled 16-item tree must emit
the pinned bytes, so a change to the agent, the simulator, the scorer or the
writers that moves a CSV byte fails here without running the benchmark. The
belief-graph JSON and the skip lines of `dreamcraft parse` on the bundled
document are pinned too.

A change that alters behaviour on purpose updates the pins below and says why.
Manifests are left out of the digests: they record absolute input paths.
"""
import hashlib
from pathlib import Path

import pytest

from dreamcraft.cli import main
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec, run_experiment

SPECS = {
    "open_ended_document": dict(
        experiment="open_ended", hypothesis=f"file:{llm_fixture_path()}", seeds=(0, 1), max_iterations=200
    ),
    "open_ended_empty": dict(experiment="open_ended", hypothesis="empty", seeds=(0, 1), max_iterations=200),
    "open_ended_truth": dict(experiment="open_ended", hypothesis="truth", seeds=(0, 1), max_iterations=200),
    "task": dict(
        experiment="task",
        hypothesis=f"file:{llm_fixture_path()}",
        goal="stone_pickaxe",
        seeds=(0, 1, 2),
        max_iterations=200,
    ),
    "robustness": dict(
        experiment="robustness",
        goal="stone_pickaxe",
        insert_rates=(0.0, 0.2),
        delete_rates=(0.0, 0.2),
        seeds=(0, 1, 2),
        max_iterations=200,
    ),
    "baseline": dict(experiment="baseline", seeds=(0, 1), max_iterations=100),
    "score_document": dict(experiment="score", hypothesis=f"file:{llm_fixture_path()}"),
    "score_perturb": dict(experiment="score", hypothesis="perturb:0.2,0.2"),
}

# Digests of the per-attempt executor, which the batch executor reproduces byte for byte.
# `score_perturb` moved when the quantity errors became floats: its whole-number
# means 0 now read `0.000000` in the CSV and `0.0` in the text report, like
# every other float field.
GOLDEN = {
    "baseline": "6230d37745fa164141dd393bd43e991a299766c4a16436e757385055d46f638b",
    "open_ended_document": "7ffedc4e4c537c53db08f9dd71eb0de560d03fdfa84f301f3bbe2b40a1cbcbad",
    "open_ended_empty": "b313a82c288953c8ced0577056b433bda1f88778dd315e48365814f5a96d9415",
    "open_ended_truth": "654dbe9da4420b20dbba4f64c267a9d718adc6e62faad5d371cb448dc4f08a12",
    "robustness": "124223a26e7f372c2e8df18d21a64156adf49db76ec5feb536d95be7db959fb9",
    "score_document": "c2a8127c202cfdc7e249b552d3de3949016309dabf37abd50735830f9d82b012",
    "score_perturb": "d3fd8d6758acaf0e5def74870454cf1150e42cebfea3048d9782574e3a2ddfc0",
    "task": "e3373b0b3fe778e1dc42d6f6cb340db5deb94a76b7e391abd84cfaee537cd94c",
}


def output_digest(out_root: Path) -> str:
    """SHA-256 over every emitted file but the manifest, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(path.relative_to(out_root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_emitted_files_match_the_pinned_digest(name, tmp_path):
    run_experiment(ExperimentSpec(tree_path=str(pickaxe16_path()), **SPECS[name]), tmp_path)
    assert output_digest(tmp_path) == GOLDEN[name]


# `dreamcraft parse` on the bundled document: the SHA-256 of the belief-graph
# JSON on stdout, and the skip lines on stderr.
PARSE_JSON = "d9012778140a8df2b8271b075f438e03fc24ee75a29108ef8708992a2368fe8a"
PARSE_SKIPS = [
    "skipped entry 'torch' (line 183): missing recipe key",
    "skipped entry 'brown_mushroom_block' (line 194): unexpected name 'planks'",
]


def test_parse_output_matches_the_pins(capsys):
    assert main(["parse", str(llm_fixture_path()), "--tree", str(pickaxe16_path())]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PARSE_JSON
    assert captured.err.splitlines() == PARSE_SKIPS
