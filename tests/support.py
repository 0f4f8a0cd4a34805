"""Test-side references that the suites compare the library against, and
the helpers they share."""
import re
from math import exp
from random import Random
from unittest import mock

import networkx as nx

from dreamcraft import hypotheses
from dreamcraft.awm import Awm, AwmEdge, AwmError, BranchStep, NodeBelief, remove_cycles
from dreamcraft.hypotheses import (
    _LITERALS,
    _NAME_START,
    DEFAULT_ALIASES,
    ParsedEntry,
    _coerce_quantity,
    _colon_error,
    _EntryError,
    _int,
    _string_value,
    ground_truth_awm,
)
from dreamcraft.tech_tree import CRAFTING_TABLE, FURNACE, INGREDIENT, TOOL, WORKBENCH, topological_order


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


def is_acyclic(edges) -> bool:
    """Whether the edges form no cycle, by networkx."""
    return nx.is_directed_acyclic_graph(nx.DiGraph((e.parent, e.child) for e in edges))


def perturb_with_distractor(tree, insert_rate, delete_rate, seed, distractor: str):
    """`perturb_ground_truth` with the inserted edges drawn from `distractor`,
    then `remove_cycles`, as a recipe document's graph gets. A distractor with
    parents can close cycles, so a run starts from a graph whose cycles were
    broken; with the library's distractor nothing is removed."""
    truth = ground_truth_awm(tree)
    edges = truth.edges
    rng = Random(seed)
    for item in sorted(truth.nodes):
        if item != distractor and rng.random() < insert_rate:
            edges.add(AwmEdge(distractor, item, "ingredient", 1))
        if rng.random() < delete_rate:
            incoming = sorted(e for e in edges if e.child == item)
            if incoming:
                edges.remove(incoming[rng.randrange(len(incoming))])
    return Awm(truth.nodes, remove_cycles(edges), beliefs_of(truth))


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


# The recipe document stages as they were written before their per-entry work
# was cut: the references for `hypotheses._value`, `hypotheses._entry_from_body`,
# `normalize_aliases` and `build_hypothesized_awm`.


def value_reference(tokens: list[str], i: int):
    tok = tokens[i]
    if tok[:1] == '"':
        return _string_value(tok), i + 1
    if tok == "{":
        mapping = {}
        i += 1
        while (key := tokens[i]) != "}":
            if key[:1] != '"':
                raise _EntryError("expected double-quoted key", i)
            if tokens[i + 1] != ":":
                raise _colon_error(tokens, i + 1)
            value, i = value_reference(tokens, i + 2)
            mapping[_string_value(key)] = value
            if tokens[i] == ",":
                i += 1
            elif tokens[i] != "}":
                raise _EntryError("expected ',' or '}'", i)
        return mapping, i + 1
    if tok == "[":
        values = []
        i += 1
        while tokens[i] != "]":
            value, i = value_reference(tokens, i)
            values.append(value)
            if tokens[i] == ",":
                i += 1
            elif tokens[i] != "]":
                raise _EntryError("expected ',' or ']'", i)
        return values, i + 1
    if tok in _LITERALS:
        return _LITERALS[tok], i + 1
    if tok[:1] == "-" or tok[:1].isdecimal():
        try:
            return _int(tok), i + 1
        except ValueError as exc:
            raise _EntryError(str(exc), i) from None
    if _NAME_START.match(tok):
        raise _EntryError(f"unexpected name {tok!r}", i)
    raise _EntryError(f"unexpected token {tok!r}", i)


def entry_from_body_reference(key: str, body) -> ParsedEntry:
    if not isinstance(body, dict):
        raise ValueError("entry body is not a map")
    if "recipe" not in body:
        raise ValueError("missing recipe key")
    raw_recipe = body["recipe"]
    if not isinstance(raw_recipe, list):
        raise ValueError("recipe is not a list")
    recipe = []
    for element in raw_recipe:
        if not isinstance(element, dict) or "item" not in element or "quantity" not in element:
            raise ValueError("recipe entries need item and quantity")
        ingredient = element["item"]
        if not isinstance(ingredient, str) or not ingredient:
            raise ValueError("recipe item must be a non-empty string")
        recipe.append((ingredient, _coerce_quantity(element["quantity"])))
    tool = body.get("required_tool")
    if tool is not None and not isinstance(tool, str):
        raise ValueError("required_tool must be a string or None")
    flags = {flag: body.get(flag, False) for flag in ("requires_crafting_table", "requires_furnace")}
    for flag, raw in flags.items():
        if isinstance(raw, str) and raw.strip() in ("True", "False"):
            flags[flag] = raw.strip() == "True"
        elif not isinstance(raw, bool):
            raise ValueError(f"{flag} must be True or False, not {raw!r}")
    return ParsedEntry(item=key, required_tool=tool, recipe=tuple(recipe), **flags)


def parse_reference(text: str):
    """`parse_recipe_dict` with the reference value descent and schema check."""
    with mock.patch.object(hypotheses, "_value", value_reference), mock.patch.object(
        hypotheses, "_entry_from_body", entry_from_body_reference
    ):
        return hypotheses.parse_recipe_dict(text)


def normalize_aliases_reference(entries: list[ParsedEntry]) -> list[ParsedEntry]:
    suffixes = [(pattern[1:], target) for pattern, target in DEFAULT_ALIASES.items() if pattern.startswith("*")]
    any_suffix = tuple(suffix for suffix, _ in suffixes)
    resolved: dict[str, str] = {}

    def alias(name: str) -> str:
        if name not in resolved:
            canon = name.strip().lower().replace(" ", "_")
            if canon in DEFAULT_ALIASES:
                canon = DEFAULT_ALIASES[canon]
            elif canon.endswith(any_suffix):
                canon = next(target for suffix, target in suffixes if canon.endswith(suffix))
            resolved[name] = canon
        return resolved[name]

    out: list[ParsedEntry] = []
    seen: set[str] = set()
    for e in entries:
        item = alias(e.item)
        if item in seen:
            continue
        seen.add(item)
        tool = alias(e.required_tool) if e.required_tool else None
        recipe = tuple((alias(i), q) for i, q in e.recipe)
        if item != e.item or tool != e.required_tool or recipe != e.recipe:
            e = ParsedEntry(item, e.requires_crafting_table, e.requires_furnace, tool, recipe)
        out.append(e)
    return out


def build_hypothesized_awm_reference(entries: list[ParsedEntry], universe: set[str]) -> Awm:
    nodes = dict.fromkeys(universe)
    edges: list[AwmEdge] = []
    beliefs: dict[str, NodeBelief] = {}
    labelled = {True: NodeBelief(collectable=True), False: NodeBelief(collectable=False)}

    def add(parent: str, child: str, kind: str, quantity: int) -> None:
        nodes[parent] = None
        edges.append(AwmEdge(parent, child, kind, quantity))

    for e in entries:
        nodes[e.item] = None
        merged: dict[str, int] = {}
        for ingredient, qty in e.recipe:
            if ingredient == e.item:
                continue
            merged[ingredient] = merged.get(ingredient, 0) + qty
        for ingredient, qty in merged.items():
            add(ingredient, e.item, INGREDIENT, qty)
        if e.required_tool and e.required_tool != e.item:
            add(e.required_tool, e.item, TOOL, 1)
        if e.requires_crafting_table and e.item != CRAFTING_TABLE:
            add(CRAFTING_TABLE, e.item, WORKBENCH, 1)
        if e.requires_furnace and e.item != FURNACE:
            add(FURNACE, e.item, WORKBENCH, 1)
        beliefs[e.item] = labelled[not e.recipe]
    return Awm(nodes, remove_cycles(edges), beliefs)
