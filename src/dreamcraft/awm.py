"""The abstract world model (AWM): a typed directed belief graph over item
subgoals.

Nodes are items; edges point from a prerequisite (parent) to the item that
needs it (child) and are typed ingredient/tool/workbench. Each node is either
hypothesized or verified. Frontier computation, goal-path pruning, branch
expansion, and verification-time correction live here. Expanded branches and
goal path sets are kept between reads, and the one write, `Awm.verify_node`,
drops those it may change.
"""
from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from collections.abc import Iterable, KeysView, Sequence
from dataclasses import asdict, dataclass
from random import Random
from typing import NamedTuple

from .tech_tree import COLLECT, CRAFT, CRAFTING_TABLE, FURNACE, INGREDIENT, TOOL, ParentSpec, topological_order


class AwmError(ValueError):
    pass


# A NamedTuple class may not define __new__, so AwmEdge's checks live in a subclass.
class _EdgeFields(NamedTuple):
    parent: str
    child: str
    kind: str
    quantity: int = 1


class AwmEdge(_EdgeFields):
    """A typed edge from a prerequisite to the item that needs it.

    A tuple of its fields, so it hashes, compares and sorts as one and equals
    the plain tuple `(parent, child, kind, quantity)`.
    """

    __slots__ = ()

    def __new__(cls, parent: str, child: str, kind: str, quantity: int = 1):
        if parent == child:
            raise AwmError(f"self edge on {parent}")
        if quantity < 1:
            raise AwmError("edge quantity must be positive")
        return tuple.__new__(cls, (parent, child, kind, quantity))


@dataclass(frozen=True)
class NodeBelief:
    """What the agent currently believes about one item.

    collectable=None means unknown (tabula rasa), the belief of a node that
    has none stored; craft_yield is 1 until a craft for the item has actually
    been observed, and is never below 1. Tools and workbenches are the node's
    incoming edges, not labels. A belief is replaced by `Awm.verify_node`,
    never changed in place.
    """

    collectable: bool | None = None
    craft_yield: int = 1

    def __post_init__(self):
        if self.craft_yield < 1:
            raise AwmError("craft yield must be positive")


_UNKNOWN_BELIEF = NodeBelief()
_NO_EDGES: frozenset[AwmEdge] = frozenset()


class BranchStep(NamedTuple):
    item: str
    action: str  # tech_tree.COLLECT or CRAFT
    quantity: int  # the units of the item the step adds


# An ordered, quantity-expanded subgoal sequence; its last step is the target.
Branch = tuple[BranchStep, ...]


class Awm:
    """The belief graph, indexed by node.

    Each edge is stored once, in the incoming set of its child; the outgoing
    sets index the same edges by parent. The frontier is the unverified nodes
    whose incoming edges all come from verified parents. An edge may name a
    parent that is not a node, which keeps its child off the frontier for
    good. The constructor indexes its nodes, edges and beliefs in one pass,
    with nothing verified, so a builder hands it the finished graph. After
    it, only `verify_node` changes the graph: `nodes` and `verified` are
    read-only views, `edges` is a new set on every read and `belief` reads
    one node.

    The graph keeps name order: the nodes never change after the constructor
    sorts them, and the frontier is a sorted list that a write updates by
    bisection. So `nodes`, `frontier` and `prune_to_goal` yield names in
    order, and no reader sorts them again.

    `expand_requirements` keeps each target's branch and `prune_to_goal` each
    goal's path set, until `verify_node` drops them.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[AwmEdge] = (),
        beliefs: dict[str, NodeBelief] | None = None,
    ):
        self._nodes: dict[str, None] = dict.fromkeys(sorted(nodes))
        self._verified: dict[str, None] = {}
        self._incoming: dict[str, set[AwmEdge]] = {}
        self._outgoing: dict[str, set[AwmEdge]] = {}
        for edge in edges:
            self._incoming.setdefault(edge.child, set()).add(edge)
            self._outgoing.setdefault(edge.parent, set()).add(edge)
        self._frontier: list[str] = [n for n in self._nodes if n not in self._incoming]  # nothing is verified yet
        self._beliefs: dict[str, NodeBelief] = dict(beliefs or {})
        self._branches: dict[str, Branch] = {}  # kept expand_requirements results, by target
        self._readers: dict[str, set[str]] = {}  # node -> targets of the kept branches through it
        self._paths: dict[str, set[str]] = {}  # kept prune_to_goal path sets, by goal

    # -- read-only state ------------------------------------------------------

    @property
    def nodes(self) -> KeysView[str]:
        return self._nodes.keys()

    @property
    def verified(self) -> KeysView[str]:
        return self._verified.keys()

    @property
    def edges(self) -> set[AwmEdge]:
        return {e for incoming in self._incoming.values() for e in incoming}

    def _update_frontier(self, item: str) -> None:
        # The frontier rule, for a node whose edges, parents or state a verification changed.
        frontier = self._frontier
        i = bisect_left(frontier, item)
        present = i < len(frontier) and frontier[i] == item
        verified = self._verified
        if item in self._nodes and item not in verified and all(e.parent in verified for e in self._incoming[item]):
            if not present:
                frontier.insert(i, item)
        elif present:
            del frontier[i]

    # -- basic queries ------------------------------------------------------

    def belief(self, item: str) -> NodeBelief:
        return self._beliefs.get(item, _UNKNOWN_BELIEF)

    def parents_of(self, item: str) -> list[AwmEdge]:
        return sorted(self._incoming.get(item, ()))

    def believed_collectable(self, item: str) -> bool:
        """Collect is the believed action when the node is labeled collectable,
        or when nothing is known and it has no hypothesized recipe."""
        b = self._beliefs.get(item)
        if b is not None and b.collectable is not None:
            return b.collectable
        for e in self._incoming.get(item, ()):
            if e.kind == INGREDIENT:
                return False
        return True

    # -- frontier and pruning ------------------------------------------------

    def frontier(self) -> list[str]:
        """Unverified nodes whose hypothesized parents (all kinds) are all
        verified, in name order; parentless unverified nodes qualify. The list
        is a copy."""
        return self._frontier.copy()

    def frontier_size(self) -> int:
        """The size of the frontier, without copying it."""
        return len(self._frontier)

    def ancestors(self, item: str) -> set[str]:
        if item not in self._nodes:
            raise AwmError(f"unknown node {item!r}")
        seen: set[str] = set()
        stack = [item]
        while stack:
            for e in self._incoming.get(stack.pop(), ()):
                if e.parent not in seen:
                    seen.add(e.parent)
                    stack.append(e.parent)
        return seen

    def prune_to_goal(self, frontier: list[str], goal: str) -> list[str]:
        """Keep only frontier nodes on the hypothesized path to the goal, in
        the frontier's (name) order; if no frontier node lies on such a path,
        return a copy of the frontier. The goal's path set is kept until
        `verify_node` drops it."""
        on_path = self._paths.get(goal)
        if on_path is None:
            on_path = self._paths[goal] = self.ancestors(goal) | {goal}
        pruned = [n for n in frontier if n in on_path]
        return pruned or frontier.copy()

    # -- branch expansion -----------------------------------------------------

    def expand_requirements(self, target: str) -> Branch:
        """Expand the hypothesized prerequisite closure of `target` into an
        ordered branch whose steps carry the units of their item they add.

        One walk over the incoming edges finds the closure (the target and its
        ancestors) and its parent-child pairs; `topological_order` orders it.
        Quantities are computed bottom-up: a step makes `ceil(need / per_run)`
        runs of `per_run` units (1 for a collect, the believed yield for a
        craft); tool/workbench uses add one non-consumed copy. The branch is
        kept until `verify_node` drops it.
        """
        branch = self._branches.get(target)
        if branch is not None:
            return branch
        if target not in self._nodes:
            raise AwmError(f"unknown node {target!r}")
        incoming = self._incoming
        closure = {}  # node -> its incoming edges
        pairs = []
        stack = [target]
        while stack:
            node = stack.pop()
            if node in closure:
                continue
            edges = closure[node] = incoming.get(node, _NO_EDGES)
            for e in edges:
                pairs.append((e.parent, node))
                if e.parent not in closure:
                    stack.append(e.parent)
        order = topological_order(closure, pairs)
        if len(order) != len(closure):
            raise AwmError(f"cycle among {sorted(closure.keys() - set(order))}")

        beliefs = self._beliefs
        believed_collectable = self.believed_collectable
        readers = self._readers
        consumed = dict.fromkeys(closure, 0)
        consumed[target] = 1
        tools: set[str] = set()  # the nodes used as a tool or workbench
        steps = []
        for node in reversed(order):
            collect = believed_collectable(node)
            per_run = 1 if collect else beliefs.get(node, _UNKNOWN_BELIEF).craft_yield
            runs = -(-(consumed[node] + (node in tools)) // per_run)
            steps.append(BranchStep(node, COLLECT if collect else CRAFT, runs * per_run))
            for e in closure[node]:
                if e.kind == INGREDIENT:
                    consumed[e.parent] += runs * e.quantity
                else:
                    tools.add(e.parent)
            readers.setdefault(node, set()).add(target)

        steps.reverse()
        branch = self._branches[target] = tuple(steps)
        return branch

    # -- verification ---------------------------------------------------------

    def verify_node(self, item: str, observed: Iterable[ParentSpec], craft_yield: int = 1) -> None:
        """Replace the item's hypothesized incoming edges and belief with the
        observed ones and mark it verified, writing only what differs from
        what is stored. Observed parents are not added as nodes. Verified
        edges are never changed again; re-verification warns and leaves the
        graph untouched.

        A goal's path set (the goal and its ancestors) reads only edges, so an
        edge change drops every kept one. A target's branch reads only the
        incoming edges and the beliefs of its closure (the target and its
        ancestors, the items of its steps), so an edge or belief change drops
        the kept branches through the item, and a verification that changes
        neither drops nothing. The frontier rule is then tested on the item
        and its children."""
        if item not in self._nodes:
            raise AwmError(f"unknown node {item!r}")
        if item in self._verified:
            warnings.warn(f"node {item!r} is already verified; ignoring", stacklevel=2)
            return
        # An edge equals its tuple, so observed parents compare with the stored
        # edges as tuples. The added edges and the new belief are built, and so
        # checked, before anything is written: a bad edge or yield writes nothing.
        edges = {(parent, item, kind, quantity) for parent, kind, quantity in observed}
        stored = self._incoming.get(item, _NO_EDGES)
        added = [AwmEdge(*e) for e in edges - stored]
        removed = stored - edges
        collectable = not any(kind == INGREDIENT for _, _, kind, _ in edges)
        if collectable:
            craft_yield = 1
        held = self.belief(item)
        changed = held.collectable != collectable or held.craft_yield != craft_yield
        belief = NodeBelief(collectable, craft_yield) if changed else None
        self._verified[item] = None
        outgoing = self._outgoing
        if added or removed:
            incoming = self._incoming.setdefault(item, set())
            for e in removed:
                incoming.remove(e)
                outgoing[e.parent].remove(e)
            for e in added:
                incoming.add(e)
                outgoing.setdefault(e.parent, set()).add(e)
            self._paths.clear()
        if changed:
            self._beliefs[item] = belief
        if added or removed or changed:
            for target in self._readers.pop(item, ()):
                for step in self._branches.pop(target):
                    if step.item != item:
                        self._readers[step.item].discard(target)
        self._update_frontier(item)
        for e in outgoing.get(item, ()):
            self._update_frontier(e.child)

    # -- export ----------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "nodes": list(self.nodes),
            "edges": [
                {"parent": e.parent, "child": e.child, "kind": e.kind, "quantity": e.quantity}
                for e in sorted(self.edges)
            ],
            "verified": sorted(self.verified),
            "beliefs": {n: asdict(self.belief(n)) for n in self.nodes},
        }
        return json.dumps(doc, indent=2) + "\n"


def sample_branch(awm: Awm, candidates: Sequence[str], rng: Random) -> Branch:
    """Pick a target uniformly from the candidates, which are distinct and
    in name order as the graph keeps them, with one draw of an index, and
    expand its prerequisite closure. The dream phase's widest pool is the
    frontier plus the verified set, so no candidates means a graph with
    neither."""
    if not candidates:
        raise AwmError("degenerate belief graph: no frontier and nothing verified")
    return awm.expand_requirements(rng.choice(candidates))


def remove_cycles(edges: Iterable[AwmEdge]) -> set[AwmEdge]:
    """The edges of a hypothesized graph that are kept once its circular
    dependencies are broken; the argument is left as it is.

    Rule 1: a workbench/tool node drops its outgoing edges to items that appear
    in its own recipe. Rule 2: remaining mutual pairs lose both directions.
    Longer cycles lose their lexicographically-last edge. One depth-first
    search (roots and children in sorted order) does this: at each back edge it
    drops the cycle's last edge, returns to that edge's parent and goes on with
    the parent's next child. A node the search has finished reaches no cycle,
    and dropping edges cannot create one, so it is not searched again: the
    search drops the same edges as one restarted after every drop. A node with
    no outgoing edge would finish at once, so the search never enters one.
    Acyclic edge sets are kept whole.
    """
    kept = set(edges)
    outgoing: dict[str, list[AwmEdge]] = {}
    for e in kept:
        outgoing.setdefault(e.parent, []).append(e)
    special = {CRAFTING_TABLE, FURNACE} & outgoing.keys() | {e.parent for e in kept if e.kind == TOOL}
    ingredients = {(e.parent, e.child) for e in kept if e.kind == INGREDIENT}
    for node in sorted(special):  # a drop can change a later node's recipe, not this node's
        for e in [e for e in outgoing[node] if (e.child, node) in ingredients]:
            outgoing[node].remove(e)
            kept.remove(e)
            ingredients.discard((node, e.child))

    pairs = {(e.parent, e.child) for e in kept}
    for e in [e for e in kept if (e.child, e.parent) in pairs]:
        outgoing[e.parent].remove(e)
        kept.remove(e)

    finished: set[str] = set()
    for root in sorted(outgoing):
        if root in finished or not outgoing[root]:
            continue
        path = [root]  # the nodes being searched; path_edges[i] runs path[i] -> path[i + 1]
        depth = {root: 0}
        path_edges: list[AwmEdge] = []
        pending = [iter(sorted(outgoing[root]))]  # each path node's unsearched edges
        while pending:
            for e in pending[-1]:
                if e.child in depth:
                    dropped = max(path_edges[depth[e.child]:] + [e])  # distinct parents: no ties
                    outgoing[dropped.parent].remove(dropped)
                    kept.remove(dropped)
                    keep = depth[dropped.parent] + 1
                    for node in path[keep:]:
                        del depth[node]
                    del path[keep:], pending[keep:], path_edges[keep - 1:]
                    break
                if e.child not in finished and outgoing.get(e.child):
                    depth[e.child] = len(path)
                    path.append(e.child)
                    path_edges.append(e)
                    pending.append(iter(sorted(outgoing[e.child])))
                    break
            else:
                node = path.pop()
                del depth[node]
                finished.add(node)
                pending.pop()
                if path_edges:
                    path_edges.pop()
    return kept
