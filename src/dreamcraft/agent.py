"""The exploration loop: alternate a dream phase (sample the next frontier
branch, pruned toward the goal when one is set) and a wake phase (execute
subgoals, verify or correct the belief graph from what actually happened).

`AgentConfig.goal` alone sets the mode: a run with a goal ends when the goal
is verified, a run without one when every tree item is. A goal must be a tree
item, so the loop's own condition is the run's one exit.

A run verifies into the belief graph it is given, so a caller builds one graph
per run, as `harness` does. Runs are deterministic given (seed, tree, graph).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from .awm import Awm, Branch, sample_branch
from .policy import acquire, execute_subgoal
from .tech_tree import COLLECT, CRAFT, Inventory, LearnerConfig, TechTree


@dataclass(frozen=True)
class AgentConfig:
    goal: str | None = None
    c0: int = 10
    max_iterations: int = 400
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    retry_cap: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.c0 < 1:
            raise ValueError("c0 must be positive")
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass
class AgentState:
    tree: TechTree
    awm: Awm
    counts: dict[str, int] = field(default_factory=dict)  # visits; written by `visit` alone
    exhausted: set[str] = field(default_factory=set)  # the nodes visited more than c0 times
    attempts: dict[str, int] = field(default_factory=dict)  # collect tries per item: its policy's whole state
    inventory: Inventory = field(default_factory=Inventory)
    rng: Random = field(default_factory=Random)
    total_env_steps: int = 0
    iteration_index: int = 0

    @classmethod
    def create(cls, tree: TechTree, awm: Awm, config: AgentConfig) -> "AgentState":
        return cls(tree=tree, awm=awm, rng=Random(config.seed))


def visit(state: AgentState, config: AgentConfig, item: str) -> None:
    """Count one visit to the item; past c0 visits it is exhausted."""
    counts = state.counts
    n = counts.get(item, 0) + 1
    counts[item] = n
    if n > config.c0:
        state.exhausted.add(item)


class IterationRecord(NamedTuple):
    iteration: int
    target: str
    fallback: bool
    success: bool
    newly_verified: str | None
    env_steps: int
    cumulative_env_steps: int
    verified_count: int
    frontier_size: int
    graph_size: int


class DreamSample(NamedTuple):
    branch: Branch
    fallback: bool


def dream(state: AgentState, config: AgentConfig) -> DreamSample:
    """Pick the next branch: a (pruned) frontier node visited at most c0
    times while any remains, otherwise widen to the whole frontier plus the
    verified set for undirected exploration; `sample_branch` rejects a graph
    with neither. The graph keeps its frontier in name order, so filtering it
    keeps that order; only the fallback pool is sorted."""
    awm = state.awm
    eligible = awm.frontier()  # a copy, and so is what `prune_to_goal` returns
    if config.goal is not None:
        eligible = awm.prune_to_goal(eligible, config.goal)
    # Few selectable nodes are exhausted (on the bench's synth400-explore
    # workload, 13 of 1350 dreams meet one), so removing them in place is
    # cheaper than testing every node.
    for n in state.exhausted.intersection(eligible):
        eligible.remove(n)
    if eligible:
        return DreamSample(sample_branch(awm, eligible, state.rng), False)
    # The frontier holds no verified node, so the two parts are disjoint.
    return DreamSample(sample_branch(awm, sorted([*awm.frontier(), *awm.verified]), state.rng), True)


def _verify_from_world(state: AgentState, item: str) -> None:
    """Record the parents actually consumed at the first success, which in this
    simulator equal the ground-truth parents, and the observed yield."""
    tree = state.tree
    state.awm.verify_node(item, tree.ground_truth_parents(item), craft_yield=tree.definition(item).craft_yield)


def _exploration_sweep(state: AgentState, config: AgentConfig) -> str | None:
    """One undirected exploration pass: try each unverified item once, in
    the name order the graph keeps its nodes in, stopping at the first
    success.

    The believed action goes first; after a failed collect a free craft attempt
    with whatever is in the inventory follows, which is how mislabeled
    craft-only items eventually get discovered and corrected.
    """
    awm = state.awm
    verified = awm.verified
    for item in awm.nodes:
        if item in verified:
            continue
        visit(state, config, item)
        for action in (COLLECT, CRAFT) if awm.believed_collectable(item) else (CRAFT,):
            if execute_subgoal(state, config, item, action).success:
                _verify_from_world(state, item)
                return item
    return None


def wake(state: AgentState, config: AgentConfig, branch: Branch, fallback: bool = False) -> IterationRecord:
    """Execute the branch, verify the target on success, and bookkeep.

    Directed iterations start from an empty inventory (a fresh episode);
    fallback iterations keep accumulating so undirected exploration can
    stumble onto multi-ingredient recipes.
    """
    state.iteration_index += 1
    if not fallback:
        state.inventory.clear()

    awm = state.awm
    verified = awm.verified
    steps_before = state.total_env_steps
    target = branch[-1].item
    newly: str | None = None
    for item, action, quantity in branch:
        out = acquire(state, config, item, action, quantity)
        visit(state, config, item)
        if not out.success:
            if item != target:  # the target is the last step
                visit(state, config, target)  # a sampled attempt even when unreached
            break
    else:
        if target not in verified:
            _verify_from_world(state, target)
            newly = target
        else:
            newly = _exploration_sweep(state, config)

    # Positional, in field order: a NamedTuple built from keywords costs more.
    total = state.total_env_steps
    return IterationRecord(
        state.iteration_index,
        target,
        fallback,
        out.success,  # the last step made: a failure ends the branch
        newly,
        total - steps_before,
        total,
        len(verified),
        awm.frontier_size(),
        len(awm.nodes),
    )


def run_with_state(
    config: AgentConfig, tree: TechTree, initial_awm: Awm
) -> tuple[list[IterationRecord], AgentState]:
    """Alternate dream and wake until the goal is verified (with a goal), every
    tree item is verified (without one), or iterations run out. Returns the
    iteration records and the final agent state, whose graph is `initial_awm`
    itself: the run verifies into it, so each run needs a graph of its own."""
    missing = set(tree.items) - initial_awm.nodes
    if missing:
        raise ValueError(f"belief graph is missing tree items: {sorted(missing)}")
    if config.goal is not None and config.goal not in tree.items:
        raise ValueError(f"goal {config.goal!r} is not a tree item")
    state = AgentState.create(tree, initial_awm, config)
    # Open-ended runs end when every item the world contains is verified;
    # hypothesis-only fictional nodes can never be. Every tree item is a node
    # (checked above), so this set cannot change during the run, and it is
    # verified before the whole graph can be: the loop condition is the only exit.
    finish = set(tree.items) if config.goal is None else {config.goal}
    records: list[IterationRecord] = []
    verified = initial_awm.verified  # a live view: each verification shows in it
    while state.iteration_index < config.max_iterations and not finish <= verified:
        sampled = dream(state, config)
        records.append(wake(state, config, sampled.branch, fallback=sampled.fallback))
    return records, state
