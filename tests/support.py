"""Test-side references that more than one suite uses."""
from math import exp
from random import Random

import networkx as nx

from dreamcraft.awm import AwmEdge, remove_cycles
from dreamcraft.hypotheses import ground_truth_awm


def success_prob(learner, attempts: int) -> float:
    """The documented collect curve p(k) = p0 + (p_max - p0) * (1 - exp(-k / tau)),
    written out as the reference for `attempt_collect`'s per-try loop."""
    return learner.p0 + (learner.p_max - learner.p0) * (1.0 - exp(-attempts / learner.tau))


def beliefs_of(awm) -> dict:
    """Every node's belief, the unknown one included, as the constructor's
    `beliefs` argument."""
    return {n: awm.belief(n) for n in awm.nodes}


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
