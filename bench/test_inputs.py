"""Tests of the benchmark's input generators.

    python3 -m pytest bench/test_inputs.py
"""
import re
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

import pytest

import inputs
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.hypotheses import normalize_aliases, parse_recipe_dict
from dreamcraft.tech_tree import CRAFTING_TABLE, FURNACE, load_tree, load_tree_file, serialize_tree
from inputs import ancestor_closures, generate_document, generate_tree, pick_goals

SEEDS = (0, 1, 7)


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_files(seed):
    first, second = generate_tree(seed, 400), generate_tree(seed, 400)
    assert serialize_tree(first) == serialize_tree(second)
    assert generate_document(first, seed) == generate_document(second, seed)


def test_other_seed_gives_other_files():
    a, b = generate_tree(0, 400), generate_tree(1, 400)
    assert serialize_tree(a) != serialize_tree(b)
    assert generate_document(a, 0) != generate_document(b, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_tree_validates_and_keeps_pickaxe16_ranges(seed):
    tree = load_tree(serialize_tree(generate_tree(seed, 400)))
    assert len(tree.items) == 400
    defs = tree.items.values()
    assert {CRAFTING_TABLE, FURNACE} <= set(tree.items)
    assert all(1 <= e.quantity <= 8 for d in defs for e in d.recipe)
    assert all(1 <= d.craft_yield <= 4 for d in defs)
    assert any(d.collectable and d.required_tool for d in defs)
    assert any(d.collectable and not d.required_tool for d in defs)
    assert any(d.requires_crafting_table for d in defs)
    assert any(d.requires_furnace for d in defs)


@pytest.mark.parametrize("seed", SEEDS)
def test_document_carries_llm_style_errors(seed):
    tree = generate_tree(seed, 400)
    text = generate_document(tree, seed)
    parsed = parse_recipe_dict(text)
    reasons = {s.reason.split()[0] for s in parsed.skipped}
    assert reasons == {"missing", "unexpected"}, "no entry without a recipe key or with an unquoted name"
    assert '"quantity": "' in text
    entries = {e.item: e for e in normalize_aliases(parsed.entries)}
    assert set(entries) - set(tree.items), "no entry for an item outside the tree"
    mentioned = {name for e in entries.values() for name, _ in e.recipe}
    assert mentioned - set(tree.items) - set(entries), "no undefined ingredient names"

    in_tree = [i for i in entries if i in tree.items]
    truth = {i: {e.item: e.quantity for e in tree.definition(i).recipe} for i in in_tree}
    claimed = {i: dict(entries[i].recipe) for i in in_tree}
    assert any(claimed[i].keys() - truth[i].keys() for i in in_tree), "no inserted ingredients"
    assert any(truth[i].keys() - claimed[i].keys() for i in in_tree), "no dropped ingredients"
    assert any(claimed[i].get(n, q) != q for i in in_tree for n, q in truth[i].items()), "no wrong quantities"
    closures = ancestor_closures(tree)
    assert any(p in tree.items and i in closures[p] for i in in_tree for p in claimed[i]), "no cycles"


def test_error_rates_are_those_of_the_bundled_llm_document():
    """The generator's rates are measured on the bundled LLM document against
    the bundled pickaxe16 tree; measure them again."""
    tree = load_tree_file(str(pickaxe16_path()))
    text = llm_fixture_path().read_text(encoding="utf-8")
    parsed = parse_recipe_dict(text)
    entries = {e.item: e for e in normalize_aliases(parsed.entries)}
    assert set(tree.items) <= set(entries), "the fixture now drops entries"
    crafts = [i for i in tree.names() if not tree.definition(i).collectable]
    truth = {i: {e.item: e.quantity for e in tree.definition(i).recipe} for i in crafts}
    claimed = {i: dict(entries[i].recipe) for i in crafts}
    kept = [(i, n) for i in crafts for n in truth[i] if n in claimed[i]]
    n_entries = len(parsed.entries) + len(parsed.skipped)
    missing_recipe = sum(s.reason == "missing recipe key" for s in parsed.skipped)
    quantities = re.findall(r'"quantity": *("?)', text)
    measured = {
        "DROP_INGREDIENT_RATE": sum(bool(truth[i].keys() - claimed[i].keys()) for i in crafts) / len(crafts),
        "WRONG_QUANTITY_RATE": sum(claimed[i][n] != truth[i][n] for i, n in kept) / len(kept),
        "FLIP_TABLE_RATE": sum(
            entries[i].requires_crafting_table != tree.definition(i).requires_crafting_table for i in crafts
        )
        / len(crafts),
        "FLIP_FURNACE_RATE": sum(entries[i].requires_furnace != tree.definition(i).requires_furnace for i in crafts)
        / len(crafts),
        "QUOTED_QUANTITY_RATE": quantities.count('"') / len(quantities),
        "EXTRA_ENTRY_RATE": len(set(entries) - set(tree.items)) / len(tree.items),
        "MISSING_RECIPE_RATE": missing_recipe / n_entries,
        "BROKEN_ENTRY_RATE": (len(parsed.skipped) - missing_recipe) / n_entries,
    }
    assert measured == {name: getattr(inputs, name) for name in measured}
    assert not any(claimed[i].keys() - truth[i].keys() for i in crafts), "the fixture now inserts ingredients"
    assert all(entries[i].required_tool == tree.definition(i).required_tool for i in tree.items), "a tool dropped"


def test_goals_have_the_largest_closures():
    tree = generate_tree(3, 400)
    closures = ancestor_closures(tree)
    goals = pick_goals(tree, 2)
    smallest_goal = min(len(closures[g]) for g in goals)
    assert all(len(closures[i]) <= smallest_goal for i in tree.items if i not in goals)
