"""Seeded crafting-tree simulator, belief-graph exploration agent, and
reproducible experiment harness."""

__version__ = "0.1.0"

from .agent import AgentConfig, AgentState, IterationRecord, dream, run_with_state, wake
from .awm import Awm, AwmEdge, Branch, BranchStep, NodeBelief, remove_cycles, sample_branch
from .hypotheses import (
    AccuracyReport,
    ErrorSpec,
    ParsedEntry,
    build_hypothesized_awm,
    empty_hypothesis,
    fetch_llm_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    score_hypothesis,
)
from .policy import LearnerConfig, PolicyBank, acquire, execute_subgoal
from .tech_tree import (
    Inventory,
    ItemDef,
    Outcome,
    RecipeEntry,
    TechTree,
    attempt_collect,
    attempt_craft,
    load_tree,
    load_tree_file,
    serialize_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
