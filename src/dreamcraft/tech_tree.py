"""Ground-truth crafting world: item definitions, dependency queries, and
collect/craft simulation.

The tech tree is the environment's transition oracle at the subgoal level.
It is immutable after loading and shared by every trial of an experiment;
inventories and RNG streams are per-trial.

`attempt_collect` and `attempt_craft` are the only copy of the simulator's
rules. Each works in one call until it has added `quantity` more of the item,
and reports the tries it made in `Outcome.tries`. A collect loop draws once
per try, in order, and stops when its tries run out; a craft is deterministic,
so every craft the inventory affords happens in one step.

Steps are environment steps: each collect try costs one full episode of
`COLLECT_STEPS`, whether or not it succeeds, and crafting is instant.

Most calls make one try, so most results are one of four fixed values: a
single collect try that succeeds or fails, a craft step that makes nothing,
and a craft step whose one craft is all that was needed. Those four are
module constants, and every call that produces one returns the shared
object; an `Outcome` is an immutable tuple, so sharing it is safe.
"""
from __future__ import annotations

import heapq
import json
import re
from collections import Counter
from dataclasses import dataclass
from math import exp, isfinite
from random import Random
from typing import Iterable, NamedTuple

INGREDIENT = "ingredient"
TOOL = "tool"
WORKBENCH = "workbench"

CRAFTING_TABLE = "crafting_table"
FURNACE = "furnace"

_NAME_RE = re.compile(r"[a-z0-9_]+")

# The two subgoal actions of the simulator.
COLLECT = "collect"
CRAFT = "craft"

COLLECT_STEPS = 1000  # environment steps in one collect episode

# (parent item, edge kind, quantity) triples, as returned by ground_truth_parents
ParentSpec = tuple[str, str, int]


class TreeError(ValueError):
    """Base for tree loading/usage errors."""


class TreeParseError(TreeError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


class TreeValidationError(TreeError):
    def __init__(self, item: str, message: str):
        super().__init__(f"item {item!r}: {message}")
        self.item = item


class RecipeEntry(NamedTuple):
    item: str
    quantity: int


class ItemDef(NamedTuple):
    """One item: either collectable (empty recipe) or craftable (non-empty)."""

    id: str
    collectable: bool
    required_tool: str | None = None
    requires_crafting_table: bool = False
    requires_furnace: bool = False
    recipe: tuple[RecipeEntry, ...] = ()
    craft_yield: int = 1


class Outcome(NamedTuple):
    """What a collect or craft call did: whether it added the quantity asked
    for, the environment steps charged, and the attempts made. The four
    fixed single-try results below are shared, not built per call."""

    success: bool
    steps: int
    tries: int


_COLLECTED = Outcome(True, COLLECT_STEPS, 1)  # a single collect try that succeeds
_NOT_COLLECTED = Outcome(False, COLLECT_STEPS, 1)  # a single collect try that fails
_CRAFTED = Outcome(True, 0, 1)  # one craft, and it was all that was needed
_NOT_CRAFTED = Outcome(False, 0, 1)  # no craft the inventory affords


class Inventory:
    """Multiset of item counts; counts can never go negative."""

    def __init__(self, counts: dict[str, int] | None = None):
        self._counts: dict[str, int] = {}  # a plain dict: no `Counter.__missing__` call on a first add
        if counts:
            for item, n in counts.items():
                if n < 0:
                    raise ValueError(f"negative count for {item}")
                if n:
                    self._counts[item] = n

    def count(self, item: str) -> int:
        return self._counts.get(item, 0)

    def add(self, item: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot add a negative amount")
        counts = self._counts
        counts[item] = counts.get(item, 0) + n

    def consume(self, item: str, n: int) -> None:
        if n < 0:
            raise ValueError("cannot consume a negative amount")
        have = self._counts.get(item, 0)
        if n > have:
            raise ValueError(f"cannot consume {n} {item}, only {have} held")
        if n == have:
            self._counts.pop(item, None)  # consuming 0 of an item not held is a no-op
        else:
            self._counts[item] = have - n

    def clear(self) -> None:
        self._counts.clear()


def parent_specs(recipe: Iterable[tuple[str, int]], tool: str | None, table: bool, furnace: bool) -> list[ParentSpec]:
    """The typed parent edges of one item definition: each (ingredient,
    quantity) pair, then the required tool if it names one, then each flagged
    workbench. The one rule for the ground-truth tree and for the graph built
    from a recipe document alike."""
    parents = [(ingredient, INGREDIENT, qty) for ingredient, qty in recipe]
    if tool:
        parents.append((tool, TOOL, 1))
    if table:
        parents.append((CRAFTING_TABLE, WORKBENCH, 1))
    if furnace:
        parents.append((FURNACE, WORKBENCH, 1))
    return parents


class TechTree:
    """Immutable map of item definitions, which are NamedTuples.

    The constructor validates a copy of the map, which the tree keeps, so a
    later change to the caller's dict does not reach it: a bad item is a
    `TreeValidationError` naming it, and an empty map a `TreeError`. Each
    item's ground-truth parent set is computed once, when the tree is built,
    and every reader shares that frozenset.
    """

    def __init__(self, items: dict[str, ItemDef]):
        items = dict(items)
        if not items:
            raise TreeError("tree has no items")
        for name, d in items.items():
            if not _NAME_RE.fullmatch(name):
                raise TreeValidationError(name, "name must match [a-z0-9_]+")
            if d.collectable and d.recipe:
                raise TreeValidationError(name, "collectable item has a recipe")
            if not d.collectable and not d.recipe:
                raise TreeValidationError(name, "craftable item has an empty recipe")
            if d.required_tool is not None and not d.collectable:
                raise TreeValidationError(name, "required_tool only applies to collectables")
            if d.collectable and (d.requires_crafting_table or d.requires_furnace):
                raise TreeValidationError(name, "workbench flags only apply to craftables")
            if d.collectable and d.craft_yield != 1:
                raise TreeValidationError(name, "yield only applies to craftables")
            if d.craft_yield < 1:
                raise TreeValidationError(name, "yield must be positive")
            seen = set()
            for e in d.recipe:
                if e.quantity < 1:
                    raise TreeValidationError(name, f"non-positive quantity for {e.item!r}")
                if e.item in seen:
                    raise TreeValidationError(name, f"duplicate recipe entry {e.item!r}")
                seen.add(e.item)
                if e.item not in items:
                    raise TreeValidationError(name, f"recipe references unknown item {e.item!r}")
            if d.required_tool is not None and d.required_tool not in items:
                raise TreeValidationError(name, f"required_tool references unknown item {d.required_tool!r}")
            if d.requires_crafting_table and CRAFTING_TABLE not in items:
                raise TreeValidationError(name, "requires_crafting_table but no crafting_table item")
            if d.requires_furnace and FURNACE not in items:
                raise TreeValidationError(name, "requires_furnace but no furnace item")
        self.items = items
        self._parents = {
            name: frozenset(parent_specs(d.recipe, d.required_tool, d.requires_crafting_table, d.requires_furnace))
            for name, d in items.items()
        }
        order = topological_order(items, ((p, i) for i, parents in self._parents.items() for p, _, _ in parents))
        if len(order) != len(items):
            cyclic = sorted(items.keys() - set(order))
            raise TreeValidationError(cyclic[0], f"dependency cycle involving {cyclic}")

    def names(self) -> list[str]:
        return sorted(self.items)

    def definition(self, item: str) -> ItemDef:
        try:
            return self.items[item]
        except KeyError:
            raise TreeError(f"unknown item {item!r}") from None

    def collectables(self) -> list[str]:
        return sorted(i for i, d in self.items.items() if d.collectable)

    def craftables(self) -> list[str]:
        return sorted(i for i, d in self.items.items() if not d.collectable)

    def ground_truth_parents(self, item: str) -> frozenset[ParentSpec]:
        """Typed dependency edges into `item`: recipe ingredients, the required
        tool, and workbench gates. The frozenset is computed when the tree is
        built, and every call returns that same shared object."""
        try:
            return self._parents[item]
        except KeyError:
            raise TreeError(f"unknown item {item!r}") from None


def topological_order(nodes: Iterable[str], pairs: Iterable[tuple[str, str]]) -> list[str]:
    """The nodes in dependency order, each (parent, child) pair's parent
    before its child, by Kahn's algorithm with the smallest ready name taken
    first. Every pair joins two of the nodes, and a pair listed twice counts
    once. Nodes on a cycle or downstream of one are left out, so the order is
    shorter than `nodes` exactly when the pairs hold a cycle."""
    children: dict[str, list[str]] = {n: [] for n in nodes}
    indeg = dict.fromkeys(children, 0)
    for parent, child in set(pairs):
        children[parent].append(child)
        indeg[child] += 1
    ready = [n for n, d in indeg.items() if not d]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if not indeg[child]:
                heapq.heappush(ready, child)
    return order


_KIND_NAMES = {bool: "a boolean", int: "an integer", list: "a list", str: "a string"}


def _type_error(key: str, value, kind: type) -> TypeError:
    """The error for a field whose value does not have exactly the type
    `kind`: no value is coerced, and a boolean is not an integer."""
    return TypeError(f"{key} must be {_KIND_NAMES[kind]}, not {value!r}")


_ITEM_FIELDS = frozenset(
    ("collectable", "required_tool", "requires_crafting_table", "requires_furnace", "recipe", "yield")
)
_RECIPE_FIELDS = frozenset(("item", "quantity"))


def _unknown_field(fields: dict, known: frozenset[str]) -> ValueError:
    key = next(key for key in fields if key not in known)
    return ValueError(f"unknown field {key!r}")


def _item_def(name: str, body: dict) -> ItemDef:
    """The definition `body` gives. A field the format does not define is
    an error, found by one subset test per map. Each field is read with one
    lookup and one exact-type test, in a fixed order, so the first bad field
    is the one reported; a required field that is absent raises KeyError."""
    if not _ITEM_FIELDS.issuperset(body):
        raise _unknown_field(body, _ITEM_FIELDS)
    get = body.get
    entries = get("recipe", [])
    if type(entries) is not list:
        raise _type_error("recipe", entries, list)
    if not all(type(entry) is dict for entry in entries):
        raise TypeError(f"recipe must be a list of maps, not {entries!r}")
    recipe = []
    for entry in entries:
        if not _RECIPE_FIELDS.issuperset(entry):
            raise _unknown_field(entry, _RECIPE_FIELDS)
        ingredient = entry["item"]
        if type(ingredient) is not str:
            raise _type_error("item", ingredient, str)
        quantity = entry["quantity"]
        if type(quantity) is not int:
            raise _type_error("quantity", quantity, int)
        recipe.append(RecipeEntry(ingredient, quantity))
    collectable = body["collectable"]
    if type(collectable) is not bool:
        raise _type_error("collectable", collectable, bool)
    tool = get("required_tool")
    if tool is not None and type(tool) is not str:
        raise _type_error("required_tool", tool, str)
    table = get("requires_crafting_table", False)
    if type(table) is not bool:
        raise _type_error("requires_crafting_table", table, bool)
    furnace = get("requires_furnace", False)
    if type(furnace) is not bool:
        raise _type_error("requires_furnace", furnace, bool)
    craft_yield = get("yield", 1)
    if type(craft_yield) is not int:
        raise _type_error("yield", craft_yield, int)
    return ItemDef(name, collectable, tool, table, furnace, tuple(recipe), craft_yield)


def _repeated_key_error(raw, repeated: dict, pairs: list[tuple[str, object]]) -> TreeParseError:
    """The error for the JSON object decoded as `repeated` from `pairs`, which
    give a key twice. It names the item whose definition holds the object, at
    any depth, when the document is a map of items and one does."""
    counts = Counter(key for key, _ in pairs)
    key = next(key for key, n in counts.items() if n > 1)
    if isinstance(raw, dict) and raw is not repeated:
        for name, body in raw.items():
            stack = [body]
            while stack:
                value = stack.pop()
                if value is repeated:
                    return TreeParseError(f"malformed definition for {name!r}: repeated key {key!r}")
                if isinstance(value, dict):
                    stack.extend(value.values())
                elif isinstance(value, list):
                    stack.extend(value)
    return TreeParseError(f"repeated key {key!r}")


def load_tree(text: str) -> TechTree:
    """Parse and validate a tree-definition document (JSON, item name -> fields).

    A key given twice in one JSON object is an error: `json.loads` alone
    keeps the last value without a word.
    """
    repeated: list[tuple[dict, list]] = []  # objects that give a key twice, in decoding order

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated.append((obj, pairs))
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise TreeParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise TreeParseError("document nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise TreeParseError(str(exc)) from exc
    if repeated:
        raise _repeated_key_error(raw, *repeated[0])
    if not isinstance(raw, dict):
        raise TreeParseError("top level must be a map of item definitions")

    items: dict[str, ItemDef] = {}
    for name, body in raw.items():
        if not isinstance(body, dict):
            raise TreeParseError(f"definition of {name!r} must be a map")
        try:
            items[name] = _item_def(name, body)
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeParseError(f"malformed definition for {name!r}: {exc}") from exc
    return TechTree(items)


def load_tree_file(path) -> TechTree:
    with open(path, encoding="utf-8") as fh:
        return load_tree(fh.read())


def serialize_tree(tree: TechTree) -> str:
    """Canonical form: sorted items, fixed key order, sorted recipe entries."""
    doc = {}
    for name in tree.names():
        d = tree.items[name]
        doc[name] = {
            "collectable": d.collectable,
            "required_tool": d.required_tool,
            "requires_crafting_table": d.requires_crafting_table,
            "requires_furnace": d.requires_furnace,
            "recipe": [
                {"item": e.item, "quantity": e.quantity}
                for e in sorted(d.recipe, key=lambda e: e.item)
            ],
            "yield": d.craft_yield,
        }
    return json.dumps(doc, indent=2) + "\n"


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


def attempt_collect(
    tree: TechTree,
    item: str,
    inventory: Inventory,
    learner: LearnerConfig,
    rng: Random,
    *,
    quantity: int = 1,
    tries: int = 1,
    practice: int = 0,
) -> Outcome:
    """Collect attempts until `quantity` more of the item are in the inventory
    or `tries` attempts are spent; the defaults make one attempt.

    `learner` is a `LearnerConfig`, whose checks keep every value of the
    curve between 0 and 1. The attempt made after k earlier ones succeeds
    with probability `p0 + (p_max - p0) * (1 - exp(-k / tau))`, with k counted
    from `practice`; with `p_max == p0` it is `p0` every time. Each attempt
    draws once from `rng`. Tool gating is ground truth: without the required
    tool, and for an item that is unknown or not collectable, every attempt
    fails with no draw. Each attempt is charged `COLLECT_STEPS` either way.
    A `quantity` below 1 is a `ValueError`, raised before anything is drawn
    or written.
    """
    if quantity < 1:
        raise ValueError("quantity must be positive")
    d = tree.items.get(item)
    if d is None or not d.collectable or (d.required_tool is not None and not inventory.count(d.required_tool)):
        return _NOT_COLLECTED if tries == 1 else Outcome(False, tries * COLLECT_STEPS, tries)
    p0 = learner.p0
    span = learner.p_max - p0
    tau = learner.tau
    draw = rng.random
    made = done = 0
    while done < tries:
        p = p0 + span * (1.0 - exp(-(practice + done) / tau))
        done += 1
        if draw() < p:
            made += 1
            if made == quantity:
                break
    if made:
        inventory.add(item, made)
    if done == 1:
        return _COLLECTED if made == quantity else _NOT_COLLECTED
    return Outcome(made == quantity, done * COLLECT_STEPS, done)


def attempt_craft(
    tree: TechTree,
    item: str,
    inventory: Inventory,
    *,
    quantity: int = 1,
) -> Outcome:
    """Crafts until `quantity` more of the item are in the inventory.
    Ingredients are consumed, the yield added; tools and workbenches are never
    consumed.

    A craft is deterministic given the inventory, so the k crafts that succeed
    are made in one step: k is the smaller of the `ceil(quantity / yield)`
    crafts needed and the crafts each ingredient's stock affords, and 0
    without a required workbench or for an item that is unknown or not
    craftable. When k falls short, one more failing try is charged, since
    retrying cannot help. Crafts charge no environment steps. A `quantity`
    below 1 is a `ValueError`, raised before anything is written.
    """
    if quantity < 1:
        raise ValueError("quantity must be positive")
    counts = inventory._counts
    d = tree.items.get(item)
    made = 0
    if (
        d is not None
        and not d.collectable
        and (not d.requires_crafting_table or counts.get(CRAFTING_TABLE, 0))
        and (not d.requires_furnace or counts.get(FURNACE, 0))
    ):
        needed = made = -(-quantity // d.craft_yield)
        for e in d.recipe:
            affordable = counts.get(e.item, 0) // e.quantity
            if affordable < made:
                made = affordable
        if made:
            for e in d.recipe:
                inventory.consume(e.item, made * e.quantity)
            inventory.add(item, made * d.craft_yield)
        if made == needed:
            return _CRAFTED if made == 1 else Outcome(True, 0, made)
    return Outcome(False, 0, made + 1) if made else _NOT_CRAFTED


def make_tree(defs: Iterable[ItemDef]) -> TechTree:
    """Build a validated tree from item definitions (test/scenario helper)."""
    return TechTree({d.id: d for d in defs})
