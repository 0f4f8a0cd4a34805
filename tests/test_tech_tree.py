import json
import sys
from random import Random

import pytest

from dreamcraft.tech_tree import (
    Inventory,
    ItemDef,
    LearnerConfig,
    Outcome,
    RecipeEntry,
    TechTree,
    TreeError,
    TreeParseError,
    TreeValidationError,
    attempt_collect,
    attempt_craft,
    load_tree,
    make_tree,
    parent_specs,
    serialize_tree,
)
from support import check_stored_parents


def held(tree, inv):
    """The inventory's nonzero counts over the tree's items."""
    return {i: inv.count(i) for i in tree.items if inv.count(i)}


def test_fixture_round_trips(tree, fixture_text):
    assert len(tree.items) == 16
    assert serialize_tree(tree) == fixture_text
    assert serialize_tree(load_tree(serialize_tree(tree))) == serialize_tree(tree)


def test_parse_error_carries_position():
    with pytest.raises(TreeParseError) as info:
        load_tree('{"log": {"collectable": true,}}')
    assert info.value.line is not None


def test_a_tree_with_no_items_is_rejected():
    with pytest.raises(TreeError, match="tree has no items"):
        load_tree("{}")
    with pytest.raises(TreeError, match="tree has no items"):
        make_tree([])


def test_the_constructor_validates_as_load_tree_and_make_tree_do():
    defs = [
        ItemDef("a", False, recipe=(RecipeEntry("b", 1),)),
        ItemDef("b", False, recipe=(RecipeEntry("a", 1),)),
    ]
    with pytest.raises(TreeValidationError) as built:
        make_tree(defs)
    with pytest.raises(TreeValidationError) as direct:
        TechTree({d.id: d for d in defs})
    assert str(direct.value) == str(built.value) == "item 'a': dependency cycle involving ['a', 'b']"
    with pytest.raises(TreeError, match="^tree has no items$"):
        TechTree({})


@pytest.mark.parametrize("name", ["log\n", "\nlog", "Log", "log planks", ""])
def test_a_name_must_match_the_whole_rule(name):
    # A final newline would satisfy `$` in a search; the whole name must match.
    with pytest.raises(TreeValidationError, match="name must match"):
        load_tree(json.dumps({name: {"collectable": True}}))


def test_dangling_reference_rejected():
    doc = {
        "glass": {"collectable": False, "recipe": [{"item": "obsidian", "quantity": 1}]},
    }
    with pytest.raises(TreeValidationError, match="obsidian"):
        load_tree(json.dumps(doc))


def test_workbench_tool_cycle_rejected():
    doc = {
        "log": {"collectable": True, "recipe": []},
        "planks": {
            "collectable": False,
            "requires_crafting_table": True,
            "recipe": [{"item": "log", "quantity": 1}],
        },
        "crafting_table": {"collectable": False, "recipe": [{"item": "planks", "quantity": 4}]},
        "stick": {"collectable": False, "recipe": [{"item": "planks", "quantity": 2}]},
    }
    # The error names every item on the cycle or downstream of it, stick too.
    with pytest.raises(TreeValidationError) as info:
        load_tree(json.dumps(doc))
    assert info.value.item == "crafting_table"
    assert str(info.value) == "item 'crafting_table': dependency cycle involving ['crafting_table', 'planks', 'stick']"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
def test_an_integer_past_the_digit_limit_is_a_parse_error():
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(TreeParseError, match=f"{digits} digits"):
        load_tree('{"log": {"collectable": true, "yield": ' + "9" * digits + "}}")


@pytest.mark.parametrize(
    "item, field, value",
    [
        ("log", "collectable", 1),
        ("planks", "requires_furnace", "false"),
        ("planks", "requires_crafting_table", 0),
        ("planks", "yield", "4"),
        ("planks", "yield", 2.0),
        ("planks", "yield", True),
        ("planks", "quantity", 2.7),
        ("planks", "quantity", "2"),
        ("planks", "item", ["log"]),
        ("planks", "item", {"log": 1}),
        ("planks", "item", 1),
        ("log", "required_tool", ["planks"]),
        ("log", "required_tool", {"planks": 1}),
        ("log", "required_tool", False),
        ("planks", "recipe", ["log"]),
        ("planks", "recipe", "log"),
        ("planks", "recipe", {"item": "log", "quantity": 1}),
    ],
)
def test_values_of_the_wrong_json_type_are_rejected_not_coerced(item, field, value):
    doc = {
        "log": {"collectable": True},
        "planks": {"collectable": False, "recipe": [{"item": "log", "quantity": 1}]},
    }
    if field in ("item", "quantity"):
        doc[item]["recipe"][0][field] = value
    else:
        doc[item][field] = value
    with pytest.raises(TreeParseError, match=f"malformed definition for '{item}': {field} must be"):
        load_tree(json.dumps(doc))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"log": {"collectable": true}, "log": {"collectable": true, "yield": 3}}', "repeated key 'log'"),
        (
            '{"log": {"collectable": true, "collectable": false}}',
            "malformed definition for 'log': repeated key 'collectable'",
        ),
        (
            '{"log": {"collectable": true},'
            ' "planks": {"collectable": false, "recipe": [{"item": "log", "item": "log", "quantity": 1}]}}',
            "malformed definition for 'planks': repeated key 'item'",
        ),
        ('[{"log": 1, "log": 2}]', "repeated key 'log'"),
    ],
    ids=["item", "field", "recipe-entry", "outside-any-item"],
)
def test_a_repeated_key_is_a_parse_error(text, message):
    # json.loads alone keeps the last of the two without a word. Inside an
    # item the error names the item, as every malformed definition does.
    with pytest.raises(TreeParseError) as info:
        load_tree(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "planks, message",
    [
        (
            # Misspelt fields would otherwise load as yield 1 with no table.
            {
                "collectable": False,
                "yeild": 4,
                "requires_crafting_tabel": True,
                "recipe": [{"item": "log", "quantity": 1, "qty": 5}],
            },
            "malformed definition for 'planks': unknown field 'yeild'",
        ),
        (
            {"collectable": False, "recipe": [{"item": "log", "quantity": 1, "qty": 5}]},
            "malformed definition for 'planks': unknown field 'qty'",
        ),
    ],
    ids=["item", "recipe-entry"],
)
def test_an_unknown_field_is_a_parse_error(planks, message):
    with pytest.raises(TreeParseError) as info:
        load_tree(json.dumps({"log": {"collectable": True}, "planks": planks}))
    assert str(info.value) == message


def test_a_collectable_with_a_yield_is_rejected():
    doc = {"log": {"collectable": True, "yield": 4}}
    with pytest.raises(TreeValidationError) as info:
        load_tree(json.dumps(doc))
    assert str(info.value) == "item 'log': yield only applies to craftables"
    doc["log"]["yield"] = 1  # the default, stated
    assert load_tree(json.dumps(doc)).definition("log").craft_yield == 1


def test_collectable_with_recipe_rejected():
    doc = {"log": {"collectable": True, "recipe": [{"item": "log", "quantity": 1}]}}
    with pytest.raises(TreeValidationError, match="log"):
        load_tree(json.dumps(doc))


def test_ground_truth_parents(tree):
    assert tree.ground_truth_parents("log") == set()
    assert tree.ground_truth_parents("stone_pickaxe") == {
        ("cobblestone", "ingredient", 3),
        ("stick", "ingredient", 2),
        ("crafting_table", "workbench", 1),
    }
    assert tree.ground_truth_parents("cobblestone") == {("wooden_pickaxe", "tool", 1)}
    check_stored_parents(tree)


def test_parent_specs_order_and_blank_tool():
    # Ingredients in recipe order, then the tool, then each flagged workbench;
    # a tool that names nothing, "" included, gives no edge.
    assert parent_specs([("b", 2), ("a", 1)], "pick", True, True) == [
        ("b", "ingredient", 2),
        ("a", "ingredient", 1),
        ("pick", "tool", 1),
        ("crafting_table", "workbench", 1),
        ("furnace", "workbench", 1),
    ]
    assert parent_specs((), "", False, False) == parent_specs((), None, False, False) == []


@pytest.mark.parametrize("lookup", ["definition", "ground_truth_parents"])
def test_an_unknown_item_is_quoted_on_one_line(tree, lookup):
    with pytest.raises(TreeError, match=r"^unknown item 'a\\nb'$"):
        getattr(tree, lookup)("a\nb")
    with pytest.raises(TreeError, match=r"^unknown item 'obsidian'$"):
        getattr(tree, lookup)("obsidian")


def test_collect_tool_gate_fails_for_every_seed(tree):
    for seed in range(25):
        inv = Inventory()
        out = attempt_collect(tree, "cobblestone", inv, LearnerConfig(1.0, 1.0), Random(seed))
        assert not out.success
        assert out.steps == 1000
        assert inv.count("cobblestone") == 0


def test_collect_probability_extremes(tree):
    inv = Inventory()
    assert attempt_collect(tree, "log", inv, LearnerConfig(1.0, 1.0), Random(0)).success
    assert inv.count("log") == 1
    assert not attempt_collect(tree, "log", inv, LearnerConfig(0.0, 0.0), Random(0)).success
    assert inv.count("log") == 1


def test_collect_determinism(tree):
    outcomes = set()
    for _ in range(5):
        inv = Inventory({"wooden_pickaxe": 1})
        out = attempt_collect(tree, "cobblestone", inv, LearnerConfig(0.5, 0.5), Random(42))
        outcomes.add((out.success, out.steps, inv.count("cobblestone")))
    assert len(outcomes) == 1


def test_craft_wooden_pickaxe(tree):
    inv = Inventory({"planks": 3, "stick": 2, "crafting_table": 1})
    out = attempt_craft(tree, "wooden_pickaxe", inv)
    assert out.success and out.steps == 0
    assert held(tree, inv) == {"crafting_table": 1, "wooden_pickaxe": 1}


def test_craft_missing_workbench_leaves_inventory_unchanged(tree):
    inv = Inventory({"planks": 3, "stick": 2})
    out = attempt_craft(tree, "wooden_pickaxe", inv)
    assert not out.success
    assert held(tree, inv) == {"planks": 3, "stick": 2}


def test_craft_yield(tree):
    inv = Inventory({"log": 1})
    assert attempt_craft(tree, "planks", inv).success
    assert held(tree, inv) == {"planks": 4}


def test_workbench_not_consumed_by_glass(tree):
    inv = Inventory({"sand": 1, "furnace": 1})
    assert attempt_craft(tree, "glass", inv).success
    assert inv.count("furnace") == 1
    assert inv.count("glass") == 1


@pytest.mark.parametrize("quantity", [0, -2])
def test_a_non_positive_quantity_raises_before_anything_is_written(tree, quantity):
    inv = Inventory({"log": 1, "wooden_pickaxe": 1})
    rng = Random(0)
    before = rng.getstate()
    with pytest.raises(ValueError, match="^quantity must be positive$"):
        attempt_collect(tree, "log", inv, LearnerConfig(1.0, 1.0), rng, quantity=quantity, tries=5)
    with pytest.raises(ValueError, match="^quantity must be positive$"):
        attempt_collect(tree, "obsidian", inv, LearnerConfig(1.0, 1.0), rng, quantity=quantity)
    with pytest.raises(ValueError, match="^quantity must be positive$"):
        attempt_craft(tree, "planks", inv, quantity=quantity)
    assert held(tree, inv) == {"log": 1, "wooden_pickaxe": 1}
    assert rng.getstate() == before


def test_single_try_outcomes_are_shared_and_others_are_built(tree):
    """The four fixed single-try results are the same object on every call;
    every result, shared or built, equals the `Outcome` of its values."""
    always, never = LearnerConfig(1.0, 1.0), LearnerConfig(0.0, 0.0)

    def collect(item, learner, **kw):
        return lambda: attempt_collect(tree, item, Inventory(), learner, Random(0), **kw)

    def craft(item, counts, **kw):
        return lambda: attempt_craft(tree, item, Inventory(counts), **kw)

    cases = [  # (call, its result, whether it is one of the shared four)
        (collect("log", always), Outcome(True, 1000, 1), True),
        (collect("log", never), Outcome(False, 1000, 1), True),
        (collect("cobblestone", always), Outcome(False, 1000, 1), True),  # no tool, no draw
        (craft("stick", {"planks": 2}), Outcome(True, 0, 1), True),
        (craft("stick", {}), Outcome(False, 0, 1), True),
        (collect("log", always, quantity=2, tries=3), Outcome(True, 2000, 2), False),
        (collect("cobblestone", always, tries=3), Outcome(False, 3000, 3), False),
        (craft("planks", {"log": 2}, quantity=5), Outcome(True, 0, 2), False),
        (craft("planks", {"log": 1}, quantity=5), Outcome(False, 0, 2), False),
    ]
    for call, result, shared in cases:
        first, second = call(), call()
        assert type(first) is Outcome and first == second == result
        assert first is second or not shared, result


def test_inventory_never_negative():
    inv = Inventory({"log": 1})
    with pytest.raises(ValueError):
        inv.consume("log", 2)
    with pytest.raises(ValueError):
        Inventory({"log": -1})


def test_inventory_rejects_a_negative_amount():
    inv = Inventory({"log": 2})
    with pytest.raises(ValueError, match="negative"):
        inv.consume("log", -3)
    with pytest.raises(ValueError, match="negative"):
        inv.add("log", -3)
    assert inv.count("log") == 2


def test_inventory_zero_amounts_change_nothing():
    inv = Inventory()
    inv.consume("log", 0)  # nothing held: still no error
    inv.add("log", 0)
    assert inv.count("log") == 0
    inv.consume("log", 0)
    assert inv.count("log") == 0
    inv.add("log", 2)
    inv.consume("log", 2)
    inv.consume("log", 0)
    assert inv.count("log") == 0


def test_the_tree_keeps_its_own_copy_of_the_items():
    items = {"log": ItemDef("log", True)}
    tree = TechTree(items)
    items["planks"] = ItemDef("planks", False, recipe=(RecipeEntry("nope", 1),))
    assert list(tree.items) == ["log"]
    with pytest.raises(TreeError, match="unknown item 'planks'"):
        tree.definition("planks")
