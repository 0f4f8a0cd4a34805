"""Per-subgoal learners and the subgoal executor used by the wake phase.

Collect subgoals are backed by a saturating learning curve standing in for a
finetuned policy: practice raises the per-attempt success probability. Craft
subgoals are a single deterministic action and need no learner. A collect
policy's whole state is its attempt count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import exp
from random import Random

from .tech_tree import (
    DEFAULT_BUDGET,
    Inventory,
    Outcome,
    StepBudget,
    TechTree,
    attempt_collect,
    attempt_craft,
)


@dataclass(frozen=True)
class LearnerConfig:
    """Success curve p(k) = p0 + (p_max - p0) * (1 - exp(-k / tau))."""

    p0: float = 0.2
    p_max: float = 0.95
    tau: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.p0 <= self.p_max <= 1.0:
            raise ValueError("need 0 <= p0 <= p_max <= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def success_prob(self, attempts: int) -> float:
        return self.p0 + (self.p_max - self.p0) * (1.0 - exp(-attempts / self.tau))


@dataclass
class PolicyBank:
    """One collect policy per item, created on its first attempt and stored
    as the number of attempts made so far."""

    learner: LearnerConfig = field(default_factory=LearnerConfig)
    attempts: dict[str, int] = field(default_factory=dict)

    def count(self) -> int:
        return len(self.attempts)


def execute_subgoal(
    bank: PolicyBank,
    tree: TechTree,
    item: str,
    action: str,
    inventory: Inventory,
    rng: Random,
    budget: StepBudget = DEFAULT_BUDGET,
) -> Outcome:
    """Run one collect or craft attempt under the agent's current competence.

    A believed action that the world does not support (collecting a craft-only
    or unknown item, crafting a collectable) is a plain failure with the normal
    step charge, not an error: exploring wrong hypotheses must be possible.
    """
    if action == "collect":
        attempts = bank.attempts.get(item, 0)
        bank.attempts[item] = attempts + 1
        if item in tree and tree.is_collectable(item):
            p = bank.learner.success_prob(attempts)
            return attempt_collect(tree, item, inventory, p, rng, budget)
        return Outcome(False, budget.collect_steps)
    if action == "craft":
        if item in tree and tree.is_craftable(item):
            return attempt_craft(tree, item, inventory, budget)
        return Outcome(False, budget.craft_steps)
    raise ValueError(f"unknown action {action!r}")


def acquire(
    bank: PolicyBank,
    tree: TechTree,
    item: str,
    action: str,
    quantity: int,
    inventory: Inventory,
    rng: Random,
    retry_cap: int = 10,
    budget: StepBudget = DEFAULT_BUDGET,
) -> Outcome:
    """Repeat the subgoal until the inventory holds `quantity` of the item or
    the retry cap is exhausted; failure is an outcome, not an exception."""
    if quantity < 1:
        raise ValueError("quantity must be positive")
    if retry_cap < 1:
        raise ValueError("retry_cap must be positive")
    steps = 0
    tries = 0
    while inventory.count(item) < quantity and tries < retry_cap:
        outcome = execute_subgoal(bank, tree, item, action, inventory, rng, budget)
        steps += outcome.steps
        tries += 1
        if action == "craft" and not outcome.success:
            break  # deterministic given the inventory; retrying cannot help
    return Outcome(inventory.count(item) >= quantity, steps)
