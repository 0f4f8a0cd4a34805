"""Per-subgoal learners and the subgoal executor used by the wake phase.

Collect subgoals are backed by a saturating learning curve standing in for a
finetuned policy: practice raises the per-attempt success probability. Craft
subgoals are a single deterministic action and need no learner. A collect
policy's whole state is its attempt count.

A branch step is one executor call asking for its `quantity` more units:
`execute_subgoal` hands the retry loop to the simulator's batch forms
(`attempt_collect` with the bank's `LearnerConfig` as its curve and at most
`retry_cap` tries, `attempt_craft` with every affordable craft in one step),
which return the tries they made in `Outcome.tries`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from random import Random

from .tech_tree import COLLECT, CRAFT, Inventory, Outcome, TechTree, attempt_collect, attempt_craft


@dataclass(frozen=True)
class LearnerConfig:
    """Success curve p(k) = p0 + (p_max - p0) * (1 - exp(-k / tau)).

    These checks are the curve's only ones: with `0 <= p0 <= p_max <= 1` and a
    finite positive `tau`, every p(k) is within [0, 1] in floating point, since
    rounding is monotone and `p0 + (p_max - p0)` rounds to at most 1."""

    p0: float = 0.2
    p_max: float = 0.95
    tau: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.p0 <= self.p_max <= 1.0:
            raise ValueError("need 0 <= p0 <= p_max <= 1")
        if not (isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")


@dataclass
class PolicyBank:
    """One collect policy per item, created on its first attempt and stored
    as the number of attempts made so far."""

    learner: LearnerConfig = field(default_factory=LearnerConfig)
    attempts: dict[str, int] = field(default_factory=dict)


def execute_subgoal(
    bank: PolicyBank,
    tree: TechTree,
    item: str,
    action: str,
    inventory: Inventory,
    rng: Random,
    quantity: int = 1,
    retry_cap: int = 1,
) -> Outcome:
    """Run a collect or craft subgoal under the agent's current competence, in
    one simulator call, until `quantity` more of the item are in the
    inventory. A collect stops after `retry_cap` tries, and every try counts
    as practice; a craft makes what the inventory affords. The defaults make
    one attempt.

    A believed action that the world does not support (collecting a craft-only
    or unknown item, crafting a collectable) is a plain failure with the normal
    step charge, not an error: exploring wrong hypotheses must be possible.
    """
    if action == COLLECT:
        practice = bank.attempts.get(item, 0)
        out = attempt_collect(
            tree, item, inventory, bank.learner, rng, quantity=quantity, tries=retry_cap, practice=practice
        )
        if out.tries:
            bank.attempts[item] = practice + out.tries
        return out
    if action == CRAFT:
        return attempt_craft(tree, item, inventory, quantity=quantity)
    raise ValueError(f"unknown action {action!r}")


def acquire(
    bank: PolicyBank,
    tree: TechTree,
    item: str,
    action: str,
    quantity: int,
    inventory: Inventory,
    rng: Random,
    retry_cap: int,
) -> Outcome:
    """Repeat the subgoal until `quantity` more of the item are in the
    inventory or, for a collect, the retry cap is exhausted; failure is an
    outcome, not an exception. A failed craft ends the call, since crafting
    is deterministic given the inventory and retrying cannot help. The
    simulator rejects a `quantity` below 1."""
    if retry_cap < 1:
        raise ValueError("retry_cap must be positive")
    return execute_subgoal(bank, tree, item, action, inventory, rng, quantity, retry_cap)
