"""The subgoal executor of the wake phase.

A collect subgoal stands in for a finetuned policy whose success rises with
practice along `AgentConfig.learner`; that policy's whole state is its count of
tries in `AgentState.attempts`. A craft is one deterministic action and needs
no learner. A branch step is one `execute_subgoal` call, which hands the retry
loop to the simulator's batch forms (`attempt_collect`, `attempt_craft`). It is
the one place that charges the steps they report and counts the collect tries.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .tech_tree import COLLECT, CRAFT, Outcome, attempt_collect, attempt_craft

if TYPE_CHECKING:
    from .agent import AgentConfig, AgentState


def execute_subgoal(
    state: AgentState, config: AgentConfig, item: str, action: str, quantity: int = 1, tries: int = 1
) -> Outcome:
    """Run a collect or craft subgoal in one simulator call until `quantity`
    more of the item are held. A collect stops after `tries` tries, and every
    try counts as practice; a craft makes what the inventory affords. The
    defaults make one attempt.

    A believed action that the world does not support (collecting a craft-only
    or unknown item, crafting a collectable) is a plain failure with the normal
    step charge: exploring wrong hypotheses must be possible. An unknown action
    is a `ValueError`, raised before anything is drawn or written.
    """
    if action == COLLECT:
        practice = state.attempts.get(item, 0)
        out = attempt_collect(
            state.tree, item, state.inventory, config.learner, state.rng,
            quantity=quantity, tries=tries, practice=practice,
        )
        state.attempts[item] = practice + out.tries
    elif action == CRAFT:
        out = attempt_craft(state.tree, item, state.inventory, quantity=quantity)
    else:
        raise ValueError(f"unknown action {action!r}")
    state.total_env_steps += out.steps
    return out


def acquire(state: AgentState, config: AgentConfig, item: str, action: str, quantity: int) -> Outcome:
    """A branch step: the subgoal with up to `config.retry_cap` collect tries.
    Failure is an outcome, not an exception, and a craft that falls short ends
    the call, since retrying cannot help. A `quantity` below 1 is an error."""
    return execute_subgoal(state, config, item, action, quantity, config.retry_cap)
