from random import Random

import pytest

from dreamcraft.policy import LearnerConfig, PolicyBank, acquire, execute_subgoal
from dreamcraft.tech_tree import Inventory
from support import success_prob


def certain() -> PolicyBank:
    return PolicyBank(learner=LearnerConfig(p0=1.0, p_max=1.0))


def test_policy_created_once_on_first_collect(tree):
    bank = PolicyBank()
    inv = Inventory()
    execute_subgoal(bank, tree, "planks", "craft", inv, Random(0))
    assert bank.attempts == {}
    execute_subgoal(bank, tree, "log", "collect", inv, Random(0))
    assert bank.attempts == {"log": 1}
    execute_subgoal(bank, tree, "log", "collect", inv, Random(0))
    assert bank.attempts == {"log": 2}


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
    bank = certain()
    inv = Inventory()
    out = execute_subgoal(bank, tree, "log", "collect", inv, Random(0))
    assert out.success and out.steps == 1000
    assert bank.attempts == {"log": 1}
    assert inv.count("log") == 1


def test_craft_needs_no_policy(tree):
    bank = PolicyBank()
    inv = Inventory({"log": 1})
    out = execute_subgoal(bank, tree, "planks", "craft", inv, Random(0))
    assert out.success and out.steps == 0
    assert bank.attempts == {}


def test_tool_gate_beats_any_policy(tree):
    bank = certain()
    out = execute_subgoal(bank, tree, "cobblestone", "collect", Inventory(), Random(0))
    assert not out.success and out.steps == 1000


def test_wrong_belief_fails_instead_of_raising(tree):
    bank = certain()
    inv = Inventory()
    # believed collectable, actually craft-only
    out = execute_subgoal(bank, tree, "glass", "collect", inv, Random(0))
    assert not out.success and out.steps == 1000
    # believed craftable, actually collect-only
    out = execute_subgoal(bank, tree, "log", "craft", inv, Random(0))
    assert not out.success and out.steps == 0
    # item the world has never heard of
    out = execute_subgoal(bank, tree, "unobtainium", "collect", inv, Random(0))
    assert not out.success and out.steps == 1000


def test_acquire_three_cobblestone(tree):
    bank = certain()
    inv = Inventory({"wooden_pickaxe": 1})
    out = acquire(bank, tree, "cobblestone", "collect", 3, inv, Random(0), retry_cap=10)
    assert out.success and out.steps == 3000
    assert bank.attempts == {"cobblestone": 3}


def test_acquire_adds_the_quantity_to_what_is_held(tree):
    # Every layer asks for how many more: five logs held, two more asked.
    inv = Inventory({"log": 5, "planks": 3})
    out = acquire(certain(), tree, "log", "collect", 2, inv, Random(0), retry_cap=10)
    assert out == (True, 2000, 2)
    assert inv.count("log") == 7
    out = acquire(PolicyBank(), tree, "planks", "craft", 4, inv, Random(0), retry_cap=10)
    assert out == (True, 0, 1)
    assert inv.count("planks") == 7 and inv.count("log") == 6


def test_acquire_hopeless_policy_exhausts_cap(tree):
    bank = PolicyBank(learner=LearnerConfig(p0=0.0, p_max=0.0))
    out = acquire(bank, tree, "log", "collect", 1, Inventory(), Random(0), retry_cap=10)
    assert not out.success
    assert out.steps == 10_000
    assert bank.attempts == {"log": 10}


def test_acquire_yield_shortcut(tree):
    bank = PolicyBank()
    inv = Inventory({"log": 1})
    out = acquire(bank, tree, "planks", "craft", 4, inv, Random(0), retry_cap=10)
    assert out.success and inv.count("planks") == 4  # single craft


def test_acquire_crafts_past_the_retry_cap(tree):
    # Twelve plank crafts from twelve logs: the retry cap bounds collects only.
    inv = Inventory({"log": 12})
    out = acquire(PolicyBank(), tree, "planks", "craft", 48, inv, Random(0), retry_cap=10)
    assert out == (True, 0, 12)
    assert inv.count("planks") == 48 and inv.count("log") == 0


def test_acquire_craft_short_of_ingredients_charges_one_failing_try(tree):
    inv = Inventory({"log": 2})
    out = acquire(PolicyBank(), tree, "planks", "craft", 16, inv, Random(0), retry_cap=1)
    assert out == (False, 0, 3)
    assert inv.count("planks") == 8 and inv.count("log") == 0


def test_acquire_craft_failure_breaks_immediately(tree):
    bank = PolicyBank()
    inv = Inventory()
    out = acquire(bank, tree, "planks", "craft", 4, inv, Random(0), retry_cap=10)
    assert not out.success and out.steps == 0


def test_acquire_validation(tree):
    with pytest.raises(ValueError):
        acquire(PolicyBank(), tree, "log", "collect", 0, Inventory(), Random(0), retry_cap=10)
    with pytest.raises(ValueError):
        acquire(PolicyBank(), tree, "log", "collect", 1, Inventory(), Random(0), retry_cap=0)
    with pytest.raises(ValueError):
        execute_subgoal(PolicyBank(), tree, "log", "teleport", Inventory(), Random(0))
