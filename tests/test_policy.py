from random import Random

import pytest

from dreamcraft.agent import AgentConfig, AgentState
from dreamcraft.hypotheses import empty_hypothesis
from dreamcraft.policy import acquire, execute_subgoal
from dreamcraft.tech_tree import Inventory, LearnerConfig
from support import success_prob

CERTAIN = {"p0": 1.0, "p_max": 1.0}
HOPELESS = {"p0": 0.0, "p_max": 0.0}


def agent(tree, held=None, retry_cap=10, **curve) -> tuple[AgentState, AgentConfig]:
    """A fresh agent over `tree` that holds `held`, and its config with the
    given retry cap and learning curve."""
    config = AgentConfig(learner=LearnerConfig(**curve), retry_cap=retry_cap)
    state = AgentState(tree, empty_hypothesis(set(tree.items)), inventory=Inventory(held), rng=Random(0))
    return state, config


def test_policy_created_once_on_first_collect(tree):
    state, config = agent(tree)
    execute_subgoal(state, config, "planks", "craft")
    assert state.attempts == {}
    execute_subgoal(state, config, "log", "collect")
    assert state.attempts == {"log": 1}
    execute_subgoal(state, config, "log", "collect")
    assert state.attempts == {"log": 2}


@pytest.mark.parametrize(
    "item, action, held, curve, success",
    [
        ("log", "collect", {}, CERTAIN, True),
        ("log", "collect", {}, HOPELESS, False),
        ("planks", "craft", {"log": 1}, CERTAIN, True),
        ("planks", "craft", {"planks": 2}, CERTAIN, False),
    ],
)
def test_executor_charges_the_steps_and_counts_collect_tries(tree, item, action, held, curve, success):
    state, config = agent(tree, held, **curve)
    state.total_env_steps = 7000
    state.attempts.update(log=2, planks=5)
    out = execute_subgoal(state, config, item, action, quantity=2, tries=3)
    assert out.success is success
    assert state.total_env_steps == 7000 + out.steps
    if action == "collect":
        assert out.tries and out.steps
        assert state.attempts == {"log": 2 + out.tries, "planks": 5}
    else:
        assert state.attempts == {"log": 2, "planks": 5}


def test_unknown_action_raises_and_changes_nothing(tree):
    state, config = agent(tree, {"log": 1}, **CERTAIN)
    state.attempts["log"] = 2
    draws = state.rng.getstate()
    with pytest.raises(ValueError, match="unknown action 'teleport'"):
        execute_subgoal(state, config, "log", "teleport")
    assert state.total_env_steps == 0
    assert state.attempts == {"log": 2}
    assert state.rng.getstate() == draws
    assert {n: state.inventory.count(n) for n in tree.items} == {n: int(n == "log") for n in tree.items}


def test_learning_curve_shape():
    cfg = LearnerConfig(p0=0.2, p_max=0.9, tau=4.0)
    probs = [success_prob(cfg, k) for k in range(100)]
    assert probs[0] == pytest.approx(0.2)
    assert all(b >= a for a, b in zip(probs, probs[1:]))
    assert all(p <= 0.9 + 1e-12 for p in probs)
    assert probs[-1] == pytest.approx(0.9, abs=1e-6)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(p0=0.9, p_max=0.5)
    for tau in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            LearnerConfig(tau=tau)
    with pytest.raises(ValueError):
        LearnerConfig(p0=float("nan"))


def test_collect_with_certain_policy(tree):
    state, config = agent(tree, **CERTAIN)
    out = execute_subgoal(state, config, "log", "collect")
    assert out.success and out.steps == 1000
    assert state.attempts == {"log": 1}
    assert state.inventory.count("log") == 1


def test_craft_needs_no_policy(tree):
    state, config = agent(tree, {"log": 1})
    out = execute_subgoal(state, config, "planks", "craft")
    assert out.success and out.steps == 0
    assert state.attempts == {}


def test_tool_gate_beats_any_policy(tree):
    state, config = agent(tree, **CERTAIN)
    out = execute_subgoal(state, config, "cobblestone", "collect")
    assert not out.success and out.steps == 1000


def test_wrong_belief_fails_instead_of_raising(tree):
    state, config = agent(tree, **CERTAIN)
    # believed collectable, actually craft-only
    out = execute_subgoal(state, config, "glass", "collect")
    assert not out.success and out.steps == 1000
    # believed craftable, actually collect-only
    out = execute_subgoal(state, config, "log", "craft")
    assert not out.success and out.steps == 0
    # item the world has never heard of
    out = execute_subgoal(state, config, "unobtainium", "collect")
    assert not out.success and out.steps == 1000


def test_acquire_three_cobblestone(tree):
    state, config = agent(tree, {"wooden_pickaxe": 1}, **CERTAIN)
    out = acquire(state, config, "cobblestone", "collect", 3)
    assert out.success and out.steps == 3000
    assert state.attempts == {"cobblestone": 3}


def test_acquire_adds_the_quantity_to_what_is_held(tree):
    # Every layer asks for how many more: five logs held, two more asked.
    state, config = agent(tree, {"log": 5, "planks": 3}, **CERTAIN)
    inv = state.inventory
    out = acquire(state, config, "log", "collect", 2)
    assert out == (True, 2000, 2)
    assert inv.count("log") == 7
    out = acquire(state, config, "planks", "craft", 4)
    assert out == (True, 0, 1)
    assert inv.count("planks") == 7 and inv.count("log") == 6


def test_acquire_hopeless_policy_exhausts_cap(tree):
    state, config = agent(tree, **HOPELESS)
    out = acquire(state, config, "log", "collect", 1)
    assert not out.success
    assert out.steps == 10_000
    assert state.attempts == {"log": 10}


def test_acquire_yield_shortcut(tree):
    state, config = agent(tree, {"log": 1})
    out = acquire(state, config, "planks", "craft", 4)
    assert out.success and state.inventory.count("planks") == 4  # single craft


def test_acquire_crafts_past_the_retry_cap(tree):
    # Twelve plank crafts from twelve logs: the retry cap bounds collects only.
    state, config = agent(tree, {"log": 12})
    out = acquire(state, config, "planks", "craft", 48)
    assert out == (True, 0, 12)
    assert state.inventory.count("planks") == 48 and state.inventory.count("log") == 0


def test_acquire_craft_short_of_ingredients_charges_one_failing_try(tree):
    state, config = agent(tree, {"log": 2}, retry_cap=1)
    out = acquire(state, config, "planks", "craft", 16)
    assert out == (False, 0, 3)
    assert state.inventory.count("planks") == 8 and state.inventory.count("log") == 0


def test_acquire_craft_failure_breaks_immediately(tree):
    state, config = agent(tree)
    out = acquire(state, config, "planks", "craft", 4)
    assert not out.success and out.steps == 0


def test_acquire_validation(tree):
    state, config = agent(tree)
    with pytest.raises(ValueError):
        acquire(state, config, "log", "collect", 0)
    with pytest.raises(ValueError):
        AgentConfig(retry_cap=0)  # the retry cap's one check
    with pytest.raises(ValueError):
        execute_subgoal(state, config, "log", "teleport")
