"""The abstract world model (AWM): a typed directed belief graph over item
subgoals.

Nodes are items; edges point from a prerequisite (parent) to the item that
needs it (child) and are typed ingredient/tool/workbench. Each node is either
hypothesized or verified. Frontier computation, goal-path pruning, branch
expansion, and verification-time correction live here.
"""
from __future__ import annotations

import heapq
import json
import math
import warnings
from collections.abc import Iterable, KeysView
from dataclasses import dataclass, replace
from random import Random
from typing import Literal

from .tech_tree import CRAFTING_TABLE, FURNACE, INGREDIENT, TOOL, ParentSpec

SubgoalAction = Literal["collect", "craft"]

COLLECT: SubgoalAction = "collect"
CRAFT: SubgoalAction = "craft"


class AwmError(ValueError):
    pass


class CycleError(AwmError):
    pass


class UnknownNodeError(AwmError):
    pass


@dataclass(frozen=True, order=True)
class AwmEdge:
    parent: str
    child: str
    kind: str
    quantity: int = 1

    def __post_init__(self):
        if self.parent == self.child:
            raise AwmError(f"self edge on {self.parent}")
        if self.quantity < 1:
            raise AwmError("edge quantity must be positive")


@dataclass
class NodeBelief:
    """What the agent currently believes about one item.

    collectable=None means unknown (tabula rasa); craft_yield is 1 until a
    craft for the item has actually been observed. Tools and workbenches are
    the node's incoming edges, not labels.
    """

    collectable: bool | None = None
    craft_yield: int = 1


@dataclass(frozen=True)
class BranchStep:
    item: str
    action: SubgoalAction
    repetitions: int


@dataclass(frozen=True)
class Branch:
    """Ordered, quantity-expanded subgoal sequence ending at the target."""

    steps: tuple[BranchStep, ...]
    target: str

    def __post_init__(self):
        if not self.steps or self.steps[-1].item != self.target:
            raise AwmError("branch must end at its target")

    def __len__(self) -> int:
        return len(self.steps)


class Awm:
    """The belief graph, indexed by node.

    Each edge is stored once, in the incoming set of its child; the outgoing
    sets index the same edges by parent. An edge may name a parent that is not
    a node, which keeps its child off the frontier for good. The frontier is
    kept up to date by counting, per child, the incoming edges whose parent is
    unverified. Only `add_node`, `add_edge`, `discard_edge` and `verify_node`
    change the graph: `nodes` and `verified` are read-only views and `edges`
    is a new set on every read.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[AwmEdge] = (),
        verified: Iterable[str] = (),
        beliefs: dict[str, NodeBelief] | None = None,
    ):
        self._nodes: dict[str, None] = {}
        self._verified: dict[str, None] = {}
        self._incoming: dict[str, set[AwmEdge]] = {}
        self._outgoing: dict[str, set[AwmEdge]] = {}
        self._blocked: dict[str, int] = {}  # incoming edges from unverified parents
        self._frontier: set[str] = set()
        self.beliefs: dict[str, NodeBelief] = dict(beliefs or {})
        for node in nodes:
            self.add_node(node)
        for edge in edges:
            self.add_edge(edge)
        for node in verified:
            if node not in self._nodes:
                raise UnknownNodeError(f"verified node '{node}' is not in the graph")
            if node not in self._verified:
                self._mark_verified(node)

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

    # -- writes -----------------------------------------------------------------

    def add_node(self, item: str) -> None:
        if item in self._nodes:
            return
        self._nodes[item] = None
        self._update_frontier(item)

    def add_edge(self, edge: AwmEdge) -> None:
        """Store the edge; its endpoints are not added as nodes."""
        incoming = self._incoming.setdefault(edge.child, set())
        if edge in incoming:
            return
        incoming.add(edge)
        self._outgoing.setdefault(edge.parent, set()).add(edge)
        if edge.parent not in self._verified:
            self._blocked[edge.child] = self._blocked.get(edge.child, 0) + 1
            self._frontier.discard(edge.child)

    def discard_edge(self, edge: AwmEdge) -> None:
        incoming = self._incoming.get(edge.child)
        if incoming is None or edge not in incoming:
            return
        incoming.remove(edge)
        self._outgoing[edge.parent].remove(edge)
        if edge.parent not in self._verified:
            self._blocked[edge.child] -= 1
            self._update_frontier(edge.child)

    def _mark_verified(self, item: str) -> None:
        self._verified[item] = None
        self._frontier.discard(item)
        for e in self._outgoing.get(item, ()):
            self._blocked[e.child] -= 1
            self._update_frontier(e.child)

    def _update_frontier(self, item: str) -> None:
        # Called when the item may have just qualified for the frontier.
        if item in self._nodes and item not in self._verified and not self._blocked.get(item):
            self._frontier.add(item)

    # -- basic queries ------------------------------------------------------

    def belief(self, item: str) -> NodeBelief:
        return self.beliefs.setdefault(item, NodeBelief())

    def parents_of(self, item: str) -> list[AwmEdge]:
        return sorted(self._incoming.get(item, ()))

    def children_of(self, item: str) -> list[AwmEdge]:
        return sorted(self._outgoing.get(item, ()))

    def ingredient_parents(self, item: str) -> dict[str, int]:
        return {e.parent: e.quantity for e in self._incoming.get(item, ()) if e.kind == INGREDIENT}

    def believed_collectable(self, item: str) -> bool:
        """Collect is the believed action when the node is labeled collectable,
        or when nothing is known and it has no hypothesized recipe."""
        b = self.beliefs.get(item)
        if b is not None and b.collectable is not None:
            return b.collectable
        return not any(e.kind == INGREDIENT for e in self._incoming.get(item, ()))

    def unverified(self) -> set[str]:
        return self._nodes.keys() - self._verified.keys()

    def is_acyclic(self) -> bool:
        try:
            self._topo_order(self.nodes)
            return True
        except CycleError:
            return False

    def copy(self) -> "Awm":
        return Awm(
            nodes=self.nodes,
            edges=self.edges,
            verified=self.verified,
            beliefs={k: replace(v) for k, v in self.beliefs.items()},
        )

    # -- frontier and pruning ------------------------------------------------

    def frontier(self) -> set[str]:
        """Unverified nodes whose hypothesized parents (all kinds) are all
        verified; parentless unverified nodes qualify."""
        return set(self._frontier)

    def ancestors(self, item: str) -> set[str]:
        if item not in self._nodes:
            raise UnknownNodeError(f"unknown node '{item}'")
        seen: set[str] = set()
        stack = [item]
        while stack:
            for e in self._incoming.get(stack.pop(), ()):
                if e.parent not in seen:
                    seen.add(e.parent)
                    stack.append(e.parent)
        return seen

    def prune_to_goal(self, frontier: set[str], goal: str) -> set[str]:
        """Keep only frontier nodes on the hypothesized path to the goal; if no
        frontier node lies on such a path, return the frontier unchanged."""
        on_path = self.ancestors(goal) | {goal}
        pruned = frontier & on_path
        return pruned if pruned else set(frontier)

    # -- branch expansion -----------------------------------------------------

    def _topo_order(self, subset: set[str] | KeysView[str]) -> list[str]:
        """Deterministic topological order of `subset` (prerequisites first),
        lexicographic tie-break. Parallel edges of different kinds between the
        same pair count once."""
        pairs = {
            (e.parent, child)
            for child in subset
            for e in self._incoming.get(child, ())
            if e.parent in subset
        }
        indeg = {n: 0 for n in subset}
        children: dict[str, list[str]] = {n: [] for n in subset}
        for parent, child in pairs:
            indeg[child] += 1
            children[parent].append(child)
        ready = [n for n in subset if indeg[n] == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in sorted(children[node]):
                indeg[child] -= 1
                if indeg[child] == 0:
                    heapq.heappush(ready, child)
        if len(order) != len(subset):
            stuck = sorted(n for n in subset if indeg[n] > 0)
            raise CycleError(f"cycle among {stuck}")
        return order

    def expand_requirements(self, target: str) -> Branch:
        """Expand the hypothesized prerequisite closure of `target` into an
        ordered branch with per-subgoal repetitions.

        Quantities are computed bottom-up with ceiling division by believed
        yields; tool/workbench uses add one non-consumed copy.
        """
        if target not in self._nodes:
            raise UnknownNodeError(f"unknown node '{target}'")
        closure = self.ancestors(target) | {target}
        order = self._topo_order(closure)

        consumed: dict[str, int] = {n: 0 for n in closure}
        tool_use: dict[str, bool] = {n: False for n in closure}
        consumed[target] = 1
        reps: dict[str, int] = {}
        for node in reversed(order):
            need = consumed[node] + (1 if tool_use[node] else 0)
            if self.believed_collectable(node):
                reps[node] = need
            else:
                per_craft = max(1, self.belief(node).craft_yield)
                reps[node] = max(1, math.ceil(need / per_craft))
            for e in self._incoming.get(node, ()):
                if e.parent not in closure:
                    continue
                if e.kind == INGREDIENT:
                    consumed[e.parent] += reps[node] * e.quantity
                else:
                    tool_use[e.parent] = True

        steps = tuple(
            BranchStep(
                item=node,
                action=COLLECT if self.believed_collectable(node) else CRAFT,
                repetitions=reps[node],
            )
            for node in order
        )
        return Branch(steps=steps, target=target)

    def path_to(self, goal: str) -> Branch | None:
        """Executable branch to a goal whose whole ancestor closure is
        verified; None when any of it is still hypothesis."""
        if goal not in self._nodes:
            raise UnknownNodeError(f"unknown node '{goal}'")
        if goal not in self._verified:
            return None
        if not self.ancestors(goal) <= self.verified:
            return None
        return self.expand_requirements(goal)

    # -- verification ---------------------------------------------------------

    def verify_node(self, item: str, observed: set[ParentSpec], craft_yield: int = 1) -> "Awm":
        """Replace the item's hypothesized incoming edges with the observed
        ground-truth parents and mark it verified. Verified edges are never
        changed again; re-verification warns and leaves the graph untouched."""
        if item not in self._nodes:
            raise UnknownNodeError(f"unknown node '{item}'")
        if item in self._verified:
            warnings.warn(f"node '{item}' is already verified; ignoring", stacklevel=2)
            return self
        for e in list(self._incoming.get(item, ())):
            self.discard_edge(e)
        for parent, kind, quantity in observed:
            self.add_node(parent)
            self.add_edge(AwmEdge(parent=parent, child=item, kind=kind, quantity=quantity))
        self._mark_verified(item)

        b = self.belief(item)
        b.collectable = not any(kind == INGREDIENT for _, kind, _ in observed)
        b.craft_yield = craft_yield if not b.collectable else 1
        return self

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"parent": e.parent, "child": e.child, "kind": e.kind, "quantity": e.quantity}
                for e in sorted(self.edges)
            ],
            "verified": sorted(self.verified),
            "beliefs": {
                n: {"collectable": b.collectable, "craft_yield": b.craft_yield}
                for n, b in sorted(self.beliefs.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Awm":
        """Inverse of `to_json_dict`. Belief keys other than collectable and
        craft_yield, such as the required_tool and workbench labels older
        checkpoints carry, are ignored: the edges hold those facts."""
        return cls(
            nodes=doc.get("nodes", []),
            edges=(
                AwmEdge(e["parent"], e["child"], e["kind"], int(e.get("quantity", 1)))
                for e in doc.get("edges", [])
            ),
            verified=doc.get("verified", []),
            beliefs={
                n: NodeBelief(collectable=b.get("collectable"), craft_yield=int(b.get("craft_yield", 1)))
                for n, b in doc.get("beliefs", {}).items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "Awm":
        return cls.from_json_dict(json.loads(text))


def sample_branch(awm: Awm, candidates: set[str], rng: Random) -> Branch:
    """Pick a target uniformly from the candidates (one draw over the sorted
    set) and expand its prerequisite closure."""
    if not candidates:
        raise AwmError("empty candidate set")
    ordered = sorted(candidates)
    target = ordered[rng.randrange(len(ordered))]
    return awm.expand_requirements(target)


def _workbench_or_tool_nodes(awm: Awm) -> set[str]:
    special = {CRAFTING_TABLE, FURNACE} & awm.nodes
    special |= {e.parent for e in awm.edges if e.kind == TOOL}
    return special


def _find_cycle(awm: Awm) -> list[AwmEdge] | None:
    # DFS returning the edge list of one cycle, or None; graphs here are small.
    color: dict[str, int] = {n: 0 for n in awm.nodes}
    path: list[AwmEdge] = []

    def dfs(node: str) -> list[AwmEdge] | None:
        color[node] = 1
        for e in awm.children_of(node):
            if color[e.child] == 1:
                idx = next(i for i, pe in enumerate(path) if pe.parent == e.child)
                return path[idx:] + [e]
            if color[e.child] == 0:
                path.append(e)
                found = dfs(e.child)
                if found:
                    return found
                path.pop()
        color[node] = 2
        return None

    for n in sorted(awm.nodes):
        if color[n] == 0:
            found = dfs(n)
            if found:
                return found
    return None


def remove_cycles(awm: Awm) -> Awm:
    """A copy of the graph with its circular dependencies broken by
    `break_cycles`; the graph itself is left as it is."""
    out = awm.copy()
    break_cycles(out)
    return out


def break_cycles(awm: Awm) -> None:
    """Break circular dependencies in a hypothesized graph, in place.

    Rule 1: a workbench/tool node drops its outgoing edges to items that appear
    in its own recipe. Rule 2: remaining mutual pairs lose both directions.
    Longer cycles (if any remain) lose their lexicographically-last edge, one
    per pass, until the graph is acyclic. Acyclic graphs are left as they are.
    """
    for node in sorted(_workbench_or_tool_nodes(awm)):
        own_recipe = awm.ingredient_parents(node)
        for e in awm.children_of(node):
            if e.child in own_recipe:
                awm.discard_edge(e)

    edges = awm.edges
    pairs = {(e.parent, e.child) for e in edges}
    for e in edges:
        if (e.child, e.parent) in pairs:
            awm.discard_edge(e)

    while True:
        cycle = _find_cycle(awm)
        if cycle is None:
            break
        awm.discard_edge(max(cycle, key=lambda e: (e.parent, e.child, e.kind)))
