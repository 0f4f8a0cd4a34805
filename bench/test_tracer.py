"""Tests of the outside-in tracer.

    python3 -m pytest bench/test_tracer.py
"""
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from dreamcraft import agent, awm, harness, hypotheses, policy
from dreamcraft.datafiles import pickaxe16_path
from dreamcraft.harness import ExperimentSpec
from tracer import Tracer


def _bindings():
    return {
        "agent.execute_subgoal": agent.execute_subgoal,
        "policy.execute_subgoal": policy.execute_subgoal,
        "agent.sample_branch": agent.sample_branch,
        "harness.attempt_collect": harness.attempt_collect,
        "policy.attempt_collect": policy.attempt_collect,
        "hypotheses.remove_cycles": hypotheses.remove_cycles,
        "hypotheses.ground_truth_awm": hypotheses.ground_truth_awm,
        "harness.ground_truth_awm": harness.ground_truth_awm,
        "Awm.frontier": awm.Awm.frontier,
    }


def test_patches_every_lookup_place_and_restores_them():
    before = _bindings()
    with Tracer().installed():
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert agent.execute_subgoal is policy.execute_subgoal  # one wrapper per function
    assert _bindings() == before


def test_counts_spans_self_time_and_corrections(tmp_path):
    spec = ExperimentSpec(
        experiment="robustness",
        tree_path=str(pickaxe16_path()),
        goal="stone_pickaxe",
        insert_rates=(0.2,),
        delete_rates=(0.2,),
        seeds=(1, 2, 3),
    )
    tracer = Tracer()
    with tracer.installed():
        harness.run_experiment(spec, tmp_path)
    m = tracer.metrics()

    assert m["harness.run_experiment.calls"] == 1
    assert m["harness.run_with_state.calls"] == 9  # three seeds each for the cell, empty and truth
    assert m["agent.dream.calls"] >= m["agent.wake.calls"] > 0
    assert m["hypotheses.perturb_ground_truth.calls"] == 3
    assert m["hypotheses.ground_truth_awm.calls"] == 6  # truth rows, and inside perturb_ground_truth
    assert m["awm.verify_node.edges_added"] > 0
    assert 0 < m["policy.acquire.tries_per_call"]
    assert tracer.unsound_nodes == []

    own = tracer.self_times()
    assert min(own) > -1e-6
    root = [i for i, p in enumerate(tracer.parent) if p < 0]
    total = sum(tracer.end[i] - tracer.start[i] for i in root)
    assert abs(sum(own) - total) < 1e-6


def test_trials_from_empty_or_truth_count_no_corrections(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        for source in ("empty", "truth"):
            spec = ExperimentSpec(
                experiment="open_ended", tree_path=str(pickaxe16_path()), hypothesis=source, seeds=(1,)
            )
            harness.run_experiment(spec, tmp_path / source)
    m = tracer.metrics()
    assert m["awm.verify_node.calls"] > 0
    assert m["awm.verify_node.edges_added"] == m["awm.verify_node.edges_removed"] == 0
