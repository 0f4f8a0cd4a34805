"""Seeded benchmark inputs: a synthetic crafting tree, a recipe document with
the errors of the bundled LLM document derived from it, and the rule that
picks task goals.

Everything here is a pure function of the workload seed, so the same seed
always produces byte-identical files. The library only ever sees the files.
"""
from __future__ import annotations

import re
from random import Random

from dreamcraft.hypotheses import ParsedEntry, serialize_recipe_dict
from dreamcraft.tech_tree import CRAFTING_TABLE, FURNACE, ItemDef, RecipeEntry, TechTree, make_tree

# Shape of the synthetic tree. The counts are fixed and only the choices
# within them are drawn, and the items form independent components joined
# only by the shared workbenches, so that how far exploration gets is an
# average over the components rather than the luck of a few root recipes.
# Quantities and yields stay inside the ranges of the bundled pickaxe16 tree
# (quantities 1-8, yields 1-4).
COMPONENTS = 32
BASE_PER_COMPONENT = 2
COLLECTABLE_EVERY = 7  # one item in seven after the base is a collectable
TOOL_GATED_EVERY = 2  # and every second of those needs a crafted tool
RECENT_WINDOW = 6
RECENT_BIAS = 0.7
TABLE_GATE_EVERY = 3
FURNACE_GATE_EVERY = 10
MAX_QUANTITY = 8
MAX_YIELD = 4

# Error rates of the generated recipe document. Each rate with a fraction was
# measured on the bundled LLM document (`datafiles.llm_fixture_path()`)
# against the bundled pickaxe16 tree: 16 tree items, 10 of them craftables
# with an entry, 11 true ingredients with a claimed quantity, 14 quantity
# fields, 21 entries. `test_inputs.py` measures them again. The fixture drops
# no entry and no tool, so neither error is generated.
DROP_INGREDIENT_RATE = 1 / 10  # of craftables: glass lost its sand
WRONG_QUANTITY_RATE = 2 / 11  # of true ingredients: door, ladder
FLIP_TABLE_RATE = 1 / 10  # of craftables: planks
FLIP_FURNACE_RATE = 1 / 10  # of craftables: glass
QUOTED_QUANTITY_RATE = 3 / 14  # of quantity fields
EXTRA_ENTRY_RATE = 3 / 16  # entries per tree item for items not in the tree: diamond, diamond_pickaxe, reeds
MISSING_RECIPE_RATE = 1 / 21  # of entries, skipped by the parser: torch
BROKEN_ENTRY_RATE = 1 / 21  # of entries, drawn for those with a recipe, skipped: brown_mushroom_block
# The fixture inserts no ingredient, so the insert rate is the middle insert
# rate of the robustness grid in scripts/reproduce_results.py (0, 0.1, 0.2).
# No source gives a share of inserts that close a cycle; one half makes every
# document exercise the parser's cycle removal.
INSERT_INGREDIENT_RATE = 0.1  # of craftables
CYCLE_SHARE_OF_INSERTS = 0.5


def generate_tree(seed: int, n_items: int) -> TechTree:
    """A validated acyclic tree of `n_items` items in topological order.

    Each of the COMPONENTS components starts with two untooled collectables;
    the crafting table and the furnace are made from the first component's.
    The remaining items are dealt to the components in turn, in a fixed
    pattern of collectables (every second one gated by an earlier craftable of
    its component as tool) and craftables. Each craftable alternately has one
    or two ingredients drawn from earlier items of its component, mostly
    recent ones, so every component grows deep.
    """
    base_count = COMPONENTS * BASE_PER_COMPONENT
    if n_items < base_count + 2 + COMPONENTS:
        raise ValueError(f"need at least {base_count + 2 + COMPONENTS} items")
    rng = Random(f"tree:{seed}")
    defs: list[ItemDef] = [ItemDef(f"c{k:03d}", collectable=True) for k in range(base_count)]
    # ingredient candidates per component; workbenches are only gates
    pools = [[d.id for d in defs[c::COMPONENTS]] for c in range(COMPONENTS)]
    craftables: list[list[str]] = [[] for _ in range(COMPONENTS)]
    # The workbench recipes are fixed, as in pickaxe16 (4 planks, 8 cobblestone):
    # every gated item depends on them, so a draw here would swing the cost of
    # the whole tree.
    defs.append(ItemDef(CRAFTING_TABLE, collectable=False, recipe=(RecipeEntry(pools[0][0], 4),)))
    defs.append(
        ItemDef(FURNACE, collectable=False, requires_crafting_table=True, recipe=(RecipeEntry(pools[0][1], 8),))
    )
    for k in range(len(defs), n_items):
        c = k % COMPONENTS
        pool, own = pools[c], craftables[c]
        if k % COLLECTABLE_EVERY == 0 and own:
            gated = (k // COLLECTABLE_EVERY) % TOOL_GATED_EVERY == 0
            item = ItemDef(f"c{k:03d}", collectable=True, required_tool=rng.choice(own) if gated else None)
        else:
            picks: set[str] = set()
            while len(picks) < min(1 + k % 2, len(pool)):
                window = pool[-RECENT_WINDOW:] if rng.random() < RECENT_BIAS else pool
                picks.add(rng.choice(window))
            item = ItemDef(
                f"m{k:03d}",
                collectable=False,
                requires_crafting_table=k % TABLE_GATE_EVERY == 0,
                requires_furnace=k % FURNACE_GATE_EVERY == 5,
                recipe=tuple(RecipeEntry(p, rng.randint(1, MAX_QUANTITY)) for p in sorted(picks)),
                craft_yield=rng.randint(1, MAX_YIELD),
            )
            own.append(item.id)
        defs.append(item)
        pool.append(item.id)
    return make_tree(defs)


def ancestor_closures(tree: TechTree) -> dict[str, set[str]]:
    """Ground-truth prerequisite closure (all edge kinds) of every item."""
    closures: dict[str, set[str]] = {}

    def closure(item: str) -> set[str]:
        if item not in closures:
            out: set[str] = set()
            for parent, _, _ in tree.ground_truth_parents(item):
                out.add(parent)
                out |= closure(parent)
            closures[item] = out
        return closures[item]

    for item in tree.names():
        closure(item)
    return closures


def pick_goals(tree: TechTree, count: int) -> list[str]:
    """The `count` items with the largest ground-truth ancestor closures, ties
    broken by name. Whether a goal is reachable plays no part."""
    closures = ancestor_closures(tree)
    return sorted(tree.names(), key=lambda item: (-len(closures[item]), item))[:count]


def _document_entry(tree: TechTree, item: str, rng: Random, descendants: set[str]) -> ParsedEntry:
    d = tree.definition(item)
    recipe = [(e.item, e.quantity) for e in d.recipe]
    if recipe and rng.random() < DROP_INGREDIENT_RATE:
        recipe.pop(rng.randrange(len(recipe)))
    recipe = [
        (name, rng.choice([q for q in range(1, MAX_QUANTITY + 1) if q != qty]))
        if rng.random() < WRONG_QUANTITY_RATE
        else (name, qty)
        for name, qty in recipe
    ]
    if not d.collectable and rng.random() < INSERT_INGREDIENT_RATE:
        if descendants and rng.random() < CYCLE_SHARE_OF_INSERTS:
            extra = rng.choice(sorted(descendants))  # closes a cycle through item
        else:
            extra = rng.choice(tree.names())
        if extra != item and extra not in dict(recipe):
            recipe.append((extra, rng.randint(1, MAX_QUANTITY)))
    table, furnace = d.requires_crafting_table, d.requires_furnace
    if not d.collectable:
        table ^= rng.random() < FLIP_TABLE_RATE
        furnace ^= rng.random() < FLIP_FURNACE_RATE
    return ParsedEntry(
        item=item,
        requires_crafting_table=table,
        requires_furnace=furnace,
        required_tool=d.required_tool,
        recipe=tuple(recipe),
    )


def _extra_entry(tree: TechTree, k: int, rng: Random) -> ParsedEntry:
    """An entry for an item that is not in the tree, made from a tree item and
    a name that nothing defines, like the fixture's diamond_pickaxe."""
    recipe = ((rng.choice(tree.names()), rng.randint(1, MAX_QUANTITY)), (f"y{k:03d}", rng.randint(1, MAX_QUANTITY)))
    return ParsedEntry(
        item=f"x{k:03d}", requires_crafting_table=False, requires_furnace=False, required_tool=None, recipe=recipe
    )


_QUANTITY_LINE = re.compile(r'^(\s*"quantity": )(\d+)$')
_ITEM_LINE = re.compile(r'^(\s*"item": )"([^"]+)",$')


def _render(entry: ParsedEntry, rng: Random) -> list[str]:
    """The entry's document lines, malformed at the fixture's rates: without
    its recipe key, or with an ingredient name left unquoted."""
    lines = serialize_recipe_dict([entry]).splitlines()[1:-1]
    draw = rng.random()
    if draw < MISSING_RECIPE_RATE:
        recipe_at = next(i for i, line in enumerate(lines) if line.lstrip().startswith('"recipe"'))
        return lines[:recipe_at] + lines[-1:]
    if draw < MISSING_RECIPE_RATE + BROKEN_ENTRY_RATE and entry.recipe:
        i = next(i for i, line in enumerate(lines) if _ITEM_LINE.match(line))
        lines[i] = _ITEM_LINE.sub(r"\1\2,", lines[i])
    return lines


def generate_document(tree: TechTree, seed: int) -> str:
    """A recipe-dictionary document for `tree` with the errors of the bundled
    LLM document, at its rates: dropped ingredients, wrong quantities, flipped
    crafting-table and furnace flags, quoted quantities, entries for items not
    in the tree whose recipes name undefined items, and entries that the parser
    skips and reports (no recipe key, an unquoted name). It adds inserted
    ingredients, half of which close a cycle."""
    rng = Random(f"document:{seed}")
    closures = ancestor_closures(tree)
    lines = ["item_info = {"]
    extras = 0
    for item in tree.names():
        descendants = {c for c in tree.items if item in closures[c]}
        lines.extend(_render(_document_entry(tree, item, rng, descendants), rng))
        if rng.random() < EXTRA_ENTRY_RATE:
            lines.extend(_render(_extra_entry(tree, extras, rng), rng))
            extras += 1
    lines.append("}")

    for i, line in enumerate(lines):
        match = _QUANTITY_LINE.match(line)
        if match and rng.random() < QUOTED_QUANTITY_RATE:
            lines[i] = f'{match.group(1)}"{match.group(2)}"'
    return "\n".join(lines) + "\n"
