"""Test-side references that more than one suite uses."""
import re
from math import exp
from random import Random

import networkx as nx

from dreamcraft.awm import Awm, AwmEdge, AwmError, BranchStep, remove_cycles
from dreamcraft.hypotheses import ground_truth_awm
from dreamcraft.tech_tree import topological_order


def success_prob(learner, attempts: int) -> float:
    """The documented collect curve p(k) = p0 + (p_max - p0) * (1 - exp(-k / tau)),
    written out as the reference for `attempt_collect`'s per-try loop."""
    return learner.p0 + (learner.p_max - learner.p0) * (1.0 - exp(-attempts / learner.tau))


def beliefs_of(awm) -> dict:
    """Every node's belief, the unknown one included, as the constructor's
    `beliefs` argument."""
    return {n: awm.belief(n) for n in awm.nodes}


def rebuilt(awm):
    """A graph of its own with the nodes, edges and beliefs of `awm`, built
    by the constructor, so nothing in it is verified and no branch is kept."""
    return Awm(awm.nodes, awm.edges, beliefs_of(awm))


def is_acyclic(awm) -> bool:
    """Whether the stored edges form no cycle, by networkx."""
    return nx.is_directed_acyclic_graph(nx.DiGraph((e.parent, e.child) for e in awm.edges))


def perturb_with_distractor(tree, insert_rate, delete_rate, seed, distractor: str):
    """`perturb_ground_truth` with the inserted edges drawn from `distractor`,
    then `remove_cycles`, as a recipe document's graph gets. A distractor with
    parents can close cycles, so a run starts from a graph whose cycles were
    broken; with the library's distractor nothing is removed."""
    awm = ground_truth_awm(tree)
    rng = Random(seed)
    for item in sorted(awm.nodes):
        if item != distractor and rng.random() < insert_rate:
            awm.add_edge(AwmEdge(distractor, item, "ingredient", 1))
        if rng.random() < delete_rate:
            incoming = awm.parents_of(item)
            if incoming:
                awm.discard_edge(incoming[rng.randrange(len(incoming))])
    remove_cycles(awm)
    return awm


def parents_of_definition(d) -> set:
    """An item's typed parents rebuilt from its definition: the reference
    for `TechTree.ground_truth_parents`."""
    parents = {(e.item, "ingredient", e.quantity) for e in d.recipe}
    if d.required_tool is not None:
        parents.add((d.required_tool, "tool", 1))
    if d.requires_crafting_table:
        parents.add(("crafting_table", "workbench", 1))
    if d.requires_furnace:
        parents.add(("furnace", "workbench", 1))
    return parents


def check_stored_parents(tree) -> None:
    """Each item's parent set is a frozenset equal to the one its definition
    gives, and every call returns that same object."""
    for item, d in tree.items.items():
        parents = tree.ground_truth_parents(item)
        assert type(parents) is frozenset, item
        assert parents == parents_of_definition(d), item
        assert tree.ground_truth_parents(item) is parents, item


def prune_by_ancestors(awm, frontier, goal):
    """Reference for `Awm.prune_to_goal`: the frontier nodes on the goal's
    path, from a fresh `ancestors` walk, or a copy of the whole frontier when
    none is."""
    on_path = awm.ancestors(goal) | {goal}
    return [n for n in frontier if n in on_path] or list(frontier)


def expand_by_ancestors(awm, target):
    """Reference for `Awm.expand_requirements`: the closure from `ancestors`,
    ordered by `topological_order` over every incoming edge of its nodes,
    then sized bottom-up, each step making whole runs of 1 unit (a collect)
    or of the believed yield (a craft), with one copy of each tool or
    workbench."""
    closure = awm.ancestors(target) | {target}
    order = topological_order(closure, ((e.parent, n) for n in closure for e in awm.parents_of(n)))
    if len(order) != len(closure):
        raise AwmError(f"cycle among {sorted(closure - set(order))}")
    consumed = dict.fromkeys(closure, 0)
    consumed[target] = 1
    tool_use = dict.fromkeys(closure, False)
    steps = {}
    for node in reversed(order):
        need = consumed[node] + (1 if tool_use[node] else 0)
        if awm.believed_collectable(node):
            action, per_run = "collect", 1
        else:
            action, per_run = "craft", awm.belief(node).craft_yield
        runs = -(-need // per_run)
        steps[node] = BranchStep(node, action, runs * per_run)
        for e in awm.parents_of(node):
            if e.kind == "ingredient":
                consumed[e.parent] += runs * e.quantity
            else:
                tool_use[e.parent] = True
    return tuple(steps[n] for n in order)


# The recipe tokenizer's pattern with plain backtracking repeats, as it was
# written before its repeats became possessive: the reference for
# `hypotheses._TOKEN` and `hypotheses._WHOLE_LEXEME`.
_BACKTRACKING_LEXEME = r"""
      "[^"\\\n]*(?:\\.[^"\\\n]*)*"
    | [{}\[\],:=]
    | -?\d+
    | [^\W\d]\w*
"""
_BACKTRACKING_GAP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
BACKTRACKING = (  # the token pattern and the whole-lexeme pattern
    re.compile(_BACKTRACKING_GAP + r"(" + _BACKTRACKING_LEXEME + r"| .+ | \Z)", re.S | re.X),
    re.compile(_BACKTRACKING_LEXEME, re.S | re.X),
)


def tokens(token, whole_lexeme, text: str) -> list:
    """Each match of `token` in `text`: its span, its lexeme, and whether
    `whole_lexeme` accepts that lexeme whole."""
    return [(m.span(), m[1], bool(whole_lexeme.fullmatch(m[1]))) for m in token.finditer(text)]
