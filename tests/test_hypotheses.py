import dataclasses
import json
import statistics
import sys

import pytest

from dreamcraft import hypotheses
from dreamcraft.awm import Awm, AwmEdge
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec, build_hypothesis, run_experiment
from dreamcraft.hypotheses import (
    AccuracyReport,
    DocumentSyntaxError,
    ParsedEntry,
    build_hypothesized_awm,
    empty_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    score_hypothesis,
)
from dreamcraft.tech_tree import ItemDef, RecipeEntry, load_tree, make_tree
from support import beliefs_of, is_acyclic


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_fixture_document(llm_document):
    result = parse_recipe_dict(llm_document)
    by_name = {e.item: e for e in result.entries}

    diamond = by_name["diamond"]
    assert not diamond.recipe and diamond.required_tool == "iron_pickaxe"

    pickaxe = by_name["diamond_pickaxe"]
    assert pickaxe.requires_crafting_table
    assert dict(pickaxe.recipe) == {"stick": 2, "diamond": 3}  # quoted "2"/"3" coerced

    assert [(s.key, s.line) for s in result.skipped] == [("torch", 183), ("brown_mushroom_block", 194)]
    reasons = {s.key: s.reason for s in result.skipped}
    assert "recipe" in reasons["torch"]


def test_the_experiment_path_finds_no_skip_positions(tree, llm_document, monkeypatch):
    # An experiment reads only the entries: a skip's line is found when the
    # skip list is read, and not before.
    def no_positions(*_args):
        raise AssertionError("skip positions found before the skip list was read")

    monkeypatch.setattr(hypotheses, "_token_offsets", no_positions)
    awm = build_hypothesis(tree, f"file:{llm_fixture_path()}", 0)
    result = parse_recipe_dict(llm_document)
    monkeypatch.undo()
    assert awm.to_json() == build_hypothesis(tree, f"file:{llm_fixture_path()}", 0).to_json()
    assert [(s.key, s.line, s.reason) for s in result.skipped] == [
        ("torch", 183, "missing recipe key"),
        ("brown_mushroom_block", 194, "unexpected name 'planks'"),
    ]


def test_parse_tolerates_trailing_commas_and_comments():
    text = """
    # leading comment
    stuff = {
        "log": {
            "requires_crafting_table": False,
            "required_tool": None,
            "recipe": [],
        },
    }
    """
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["log"]
    assert result.entries[0].recipe == ()


def test_parse_truncated_document_keeps_prior_entries():
    text = '{"a": {"recipe": []}, "b": {"recipe": [{"item": "a",'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["a"]
    assert [s.key for s in result.skipped] == ["b"]


def test_parse_document_level_error_has_position():
    with pytest.raises(DocumentSyntaxError) as info:
        parse_recipe_dict("\n  [1, 2]")
    assert (info.value.line, info.value.column) == (2, 3)
    assert str(info.value) == "document must be a dictionary literal (line 2, column 3)"


def test_parse_rejects_unquoted_toplevel_key():
    with pytest.raises(DocumentSyntaxError) as info:
        parse_recipe_dict('{"log": {"recipe": []},\n  log: {}}')
    assert (info.value.line, info.value.column) == (2, 3)
    assert str(info.value) == "expected entry key, found 'log' (line 2, column 3)"


def test_parse_skips_bad_quantities():
    # A quoted quantity is made of decimal digits: '²' is a digit that int()
    # rejects, and '٣' is 3.
    text = (
        '{"a": {"recipe": [{"item": "b", "quantity": "lots"}]},'
        ' "s": {"recipe": [{"item": "b", "quantity": "²"}]},'
        ' "c": {"recipe": [{"item": "b", "quantity": "٣"}]}}'
    )
    result = parse_recipe_dict(text)
    assert [(e.item, e.recipe) for e in result.entries] == [("c", (("b", 3),))]
    assert [(s.key, s.reason) for s in result.skipped] == [("a", "bad quantity 'lots'"), ("s", "bad quantity '²'")]


# ---------------------------------------------------------------------------
# Positions: a line is 1 plus the newlines before the token, a column 1 plus
# the characters since the last newline; the end of the document is the
# position after its last character.
# ---------------------------------------------------------------------------


def test_line_after_escaped_newline():
    text = '{"a\\\nb": {"recipe": []},\n\n "c": {"recipe": [}}'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["a\nb"]
    assert [(s.key, s.line, s.reason) for s in result.skipped] == [("c", 4, "unexpected token '}'")]


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ('{\n  "log": {"recipe": []},\n  "sand', "unterminated string", 3, 3),
        ('{"a": "b\n"}', "unterminated string", 1, 7),
        ('{\n  "log": ~}', "unexpected character '~'", 2, 10),
        ("# a comment\nitem_info = # no document", "document must be a dictionary literal", 2, 26),
    ],
)
def test_syntax_error_positions(text, message, line, column):
    with pytest.raises(DocumentSyntaxError) as info:
        parse_recipe_dict(text)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"{message} (line {line}, column {column})",
        line,
        column,
    )


def test_deep_nesting_is_a_skipped_entry():
    text = '{"log": {"recipe": []},\n "a": ' + "[" * 5000 + "]" * 5000 + ',\n "sand": {"recipe": []}}'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["log", "sand"]
    assert [(s.key, s.line, s.reason) for s in result.skipped] == [("a", 2, "entry nested too deeply")]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
def test_an_integer_past_the_digit_limit_skips_its_entry_only():
    digits = sys.get_int_max_str_digits() + 1
    text = '{"a": {"recipe": [{"item": "b", "quantity": ' + "9" * digits + '}]},\n "c": {"recipe": []}}'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["c"]
    assert [(s.key, s.line, s.reason) for s in result.skipped] == [("a", 1, f"integer of {digits} digits is too long")]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits")
def test_a_quoted_integer_past_the_digit_limit_gives_the_unquoted_reason():
    digits = sys.get_int_max_str_digits() + 1
    reasons = []
    for quantity in ("9" * digits, '"' + "9" * digits + '"'):
        result = parse_recipe_dict('{"a": {"recipe": [{"item": "b", "quantity": ' + quantity + "}]}}")
        assert result.entries == []
        reasons += [s.reason for s in result.skipped]
    assert reasons == [f"integer of {digits} digits is too long"] * 2


def test_workbench_flags_are_booleans_bare_or_quoted():
    def flags(table, furnace=None):
        body = f'"recipe": [{{"item": "b", "quantity": 1}}], "requires_crafting_table": {table}'
        if furnace is not None:
            body += f', "requires_furnace": {furnace}'
        result = parse_recipe_dict('{"a": {' + body + "}}")
        if not result.entries:
            return result.skipped[0].reason
        (entry,) = result.entries
        return entry.requires_crafting_table, entry.requires_furnace

    assert flags("True") == (True, False)  # an absent flag is False
    assert flags('"True"', '"False"') == (True, False)
    assert flags('" False "', "True") == (False, True)
    assert flags('"False"') == (False, False)
    # Anything else, an integer included, skips the entry naming the flag.
    assert flags('"no"') == "requires_crafting_table must be True or False, not 'no'"
    assert flags("False", '"false"') == "requires_furnace must be True or False, not 'false'"
    assert flags("1") == "requires_crafting_table must be True or False, not 1"
    assert flags("None") == "requires_crafting_table must be True or False, not None"
    assert flags("True", "0") == "requires_furnace must be True or False, not 0"


def test_non_decimal_digits_are_names():
    # A name may start with any letter-like or numeric character but a decimal
    # digit: '²' and '½' start names, so an entry using one as a value is
    # skipped and the parser goes on after it.
    text = '{"a": {"recipe": [{"item": "b", "quantity": ²}]}, "c": {"recipe": [], "n": ½}, "d": {"recipe": []}}'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["d"]
    assert [(s.key, s.reason) for s in result.skipped] == [("a", "unexpected name '²'"), ("c", "unexpected name '½'")]
    # Decimal digits of any script are integers.
    assert parse_recipe_dict('{"a": {"recipe": [{"item": "b", "quantity": ٣}]}}').entries[0].recipe == (("b", 3),)


# ---------------------------------------------------------------------------
# Aliases
# ---------------------------------------------------------------------------


def test_alias_plank_variants():
    entries = [
        ParsedEntry(item="oak_plank", recipe=(("log", 1),)),
        ParsedEntry(item="cane"),
        ParsedEntry(item="stick", recipe=(("birch_wood", 2),)),
        ParsedEntry(item="flower"),
    ]
    out = normalize_aliases(entries)
    assert [e.item for e in out] == ["planks", "reeds", "stick", "flower"]
    assert out[2].recipe == (("planks", 2),)


def test_alias_duplicates_keep_first():
    entries = [
        ParsedEntry(item="planks", recipe=(("log", 1),)),
        ParsedEntry(item="oak_plank", recipe=(("log", 9),)),
    ]
    out = normalize_aliases(entries)
    assert len(out) == 1
    assert out[0].recipe == (("log", 1),)


def test_alias_spaces_canonicalized():
    out = normalize_aliases([ParsedEntry(item="Oak Plank")])
    assert out[0].item == "planks"


def test_parse_serialize_round_trip(llm_document):
    from dreamcraft.hypotheses import serialize_recipe_dict

    entries = parse_recipe_dict(llm_document).entries
    document = serialize_recipe_dict(entries)
    reparsed = parse_recipe_dict(document)
    assert reparsed.entries == entries
    assert reparsed.skipped == []
    # stable once canonical
    assert serialize_recipe_dict(reparsed.entries) == document


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_build_awm_edge_kinds(tree):
    entries = [
        ParsedEntry(
            item="stone_pickaxe",
            requires_crafting_table=True,
            recipe=(("stick", 2), ("cobblestone", 3)),
        )
    ]
    awm = build_hypothesized_awm(entries, set(tree.items))
    kinds = sorted((e.parent, e.kind) for e in awm.parents_of("stone_pickaxe"))
    assert kinds == [
        ("cobblestone", "ingredient"),
        ("crafting_table", "workbench"),
        ("stick", "ingredient"),
    ]
    assert awm.verified == set()


def test_build_awm_glass_error_is_parentless(tree, llm_document):
    entries = normalize_aliases(parse_recipe_dict(llm_document).entries)
    awm = build_hypothesized_awm(entries, set(tree.items))
    assert awm.parents_of("glass") == []
    assert awm.believed_collectable("glass")
    # cycle removal handled the planks/crafting_table mutual prediction
    assert AwmEdge("crafting_table", "planks", "workbench", 1) not in awm.edges
    assert [(e.parent, e.quantity) for e in awm.parents_of("crafting_table") if e.kind == "ingredient"] == [("planks", 4)]
    assert is_acyclic(awm.edges)


def test_build_awm_forgives_blank_tools_repeats_and_self_references():
    # A tool of spaces normalizes to "", which names no parent; a repeated
    # ingredient's quantities add up; an item listed as its own ingredient,
    # tool or workbench gets no edge from itself (a graph rejects self edges).
    result = parse_recipe_dict("""{
        "axe": {"required_tool": "  ", "recipe": [
            {"item": "log", "quantity": 1}, {"item": "log", "quantity": 2}, {"item": "axe", "quantity": 1}]},
        "crafting_table": {"requires_crafting_table": True, "recipe": [{"item": "planks", "quantity": 4}]},
        "furnace": {"requires_furnace": True, "required_tool": "furnace",
            "recipe": [{"item": "cobblestone", "quantity": 8}]},
    }""")
    assert not result.skipped
    awm = build_hypothesized_awm(normalize_aliases(result.entries), set())
    assert awm.edges == {
        AwmEdge("log", "axe", "ingredient", 3),
        AwmEdge("planks", "crafting_table", "ingredient", 4),
        AwmEdge("cobblestone", "furnace", "ingredient", 8),
    }
    assert set(awm.nodes) == {"axe", "log", "crafting_table", "planks", "furnace", "cobblestone"}
    assert not any(awm.believed_collectable(n) for n in ("axe", "crafting_table", "furnace"))


def test_build_awm_empty_entries(tree):
    awm = build_hypothesized_awm([], set(tree.items))
    assert awm.nodes == set(tree.items)
    assert awm.edges == set()


def test_empty_hypothesis(tree):
    awm = empty_hypothesis(set(tree.items))
    assert len(awm.nodes) == 16 and not awm.edges and not awm.verified
    assert awm.frontier() == sorted(tree.items)
    assert empty_hypothesis(set()).nodes == set()


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def test_perturb_zero_rates_is_identity(tree):
    truth = ground_truth_awm(tree)
    perturbed = perturb_ground_truth(tree, 0.0, 0.0, seed=9)
    assert perturbed.edges == truth.edges
    assert perturbed.nodes == truth.nodes


def test_perturb_full_insert_draws_every_edge_from_the_first_parentless_item(tree):
    perturbed = perturb_ground_truth(tree, 1.0, 0.0, seed=3)
    truth = ground_truth_awm(tree)
    assert perturbed.edges - truth.edges == {
        AwmEdge("dirt", item, "ingredient", 1) for item in tree.items if item != "dirt"
    }
    assert truth.edges <= perturbed.edges

    # A tree without sand, whose first name (crafting_table) has parents.
    small = make_tree(
        [
            ItemDef("log", collectable=True),
            ItemDef("planks", collectable=False, recipe=(RecipeEntry("log", 1),), craft_yield=4),
            ItemDef("crafting_table", collectable=False, recipe=(RecipeEntry("planks", 4),)),
        ]
    )
    perturbed = perturb_ground_truth(small, 1.0, 0.0, seed=3)
    assert perturbed.edges - ground_truth_awm(small).edges == {AwmEdge("log", "crafting_table", "ingredient", 1)}


def test_perturb_deterministic(tree):
    assert perturb_ground_truth(tree, 0.3, 0.4, seed=11).edges == perturb_ground_truth(tree, 0.3, 0.4, seed=11).edges


def test_perturb_insert_count_grows_with_rate(tree):
    truth_edges = ground_truth_awm(tree).edges

    def mean_inserted(rate):
        counts = []
        for seed in range(40):
            p = perturb_ground_truth(tree, rate, 0.0, seed=seed)
            counts.append(len(p.edges - truth_edges))
        return statistics.mean(counts)

    low, high = mean_inserted(0.1), mean_inserted(0.5)
    assert low < high
    assert 0.2 * 15 < high < 0.8 * 15  # roughly linear in the rate


def test_perturb_keeps_graph_acyclic(tree):
    for seed in range(10):
        assert is_acyclic(perturb_ground_truth(tree, 0.5, 0.5, seed=seed).edges)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def test_score_identity_is_perfect(tree):
    report = score_hypothesis(ground_truth_awm(tree), tree)
    assert report.collectable_vs_craftable_acc == 100.0
    assert report.workbench_acc == 100.0
    assert report.recipe_items_acc == 100.0
    assert report.recipe_exact_acc == 100.0
    assert report.pct_items_inserted_deps == 0.0
    assert report.pct_items_missing_deps == 0.0
    assert report.qty_abs_error == 0.0
    assert report.qty_avg_error == 0.0
    assert report.qty_std == 0.0


TOY_TREE = json.dumps(
    {
        "wood": {"collectable": True, "recipe": []},
        "stone": {"collectable": True, "recipe": []},
        "plank": {"collectable": False, "recipe": [{"item": "wood", "quantity": 2}]},
        "box": {
            "collectable": False,
            "recipe": [{"item": "plank", "quantity": 3}, {"item": "stone", "quantity": 1}],
        },
    }
)


def toy_prediction():
    entries = [
        ParsedEntry(item="wood", recipe=(("stone", 1),)),  # wrong label + inserted dep
        ParsedEntry(item="stone"),
        ParsedEntry(item="plank", requires_crafting_table=True, recipe=(("wood", 3),)),
        ParsedEntry(item="box", recipe=(("plank", 3),)),  # missing the stone dep
    ]
    return entries


def test_score_four_item_discrepancy_fixture():
    tree = load_tree(TOY_TREE)
    awm = build_hypothesized_awm(toy_prediction(), set(tree.items))
    report = score_hypothesis(awm, tree)
    assert report.collectable_vs_craftable_acc == 75.0
    assert report.workbench_acc == 75.0
    assert report.recipe_items_acc == 50.0
    assert report.recipe_exact_acc == 25.0
    assert report.pct_items_inserted_deps == 50.0
    assert report.pct_items_missing_deps == 25.0
    assert report.qty_abs_error == 0.5
    assert report.qty_avg_error == 0.5
    assert report.qty_std == 0.5
    assert report.n_items == 4


def test_score_single_quantity_pair():
    tree = load_tree(TOY_TREE)
    entries = [
        ParsedEntry(item="wood"),
        ParsedEntry(item="stone"),
        ParsedEntry(item="plank", recipe=(("wood", 2),)),
        ParsedEntry(item="box", recipe=(("plank", 2), ("stone", 1))),  # 2 instead of 3
    ]
    awm = build_hypothesized_awm(entries, set(tree.items))
    report = score_hypothesis(awm, tree)
    assert report.qty_abs_error == pytest.approx(1.0 / 3)
    assert report.qty_avg_error == pytest.approx(-1.0 / 3)
    assert report.qty_std == pytest.approx((2.0 / 9) ** 0.5)  # errors 0, -1, 0


def test_score_missing_item_counts_all_wrong():
    tree = load_tree(
        json.dumps(
            {
                "sand": {"collectable": True, "recipe": []},
                "glass": {"collectable": False, "recipe": [{"item": "sand", "quantity": 1}]},
            }
        )
    )
    truth = ground_truth_awm(tree)
    awm = Awm(nodes={"sand"}, beliefs=beliefs_of(truth))
    report = score_hypothesis(awm, tree)
    assert report.collectable_vs_craftable_acc == 50.0
    assert report.pct_items_missing_deps == 50.0


def test_score_report_serialization(tmp_path):
    run_experiment(ExperimentSpec(experiment="score", tree_path=str(pickaxe16_path())), tmp_path)
    assert "recipe_exact_acc=100.0\n" in (tmp_path / "accuracy_report.txt").read_text()
    header, row = (tmp_path / "accuracy_report.csv").read_text().splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(AccuracyReport)]
    assert row.split(",")[3] == "100.000000" and row.split(",")[-1] == "16"


def test_perturb_rejects_a_rate_outside_the_unit_interval(tree):
    for rates in [(1.5, 0.0), (0.0, -0.1), (float("nan"), 0.0)]:
        with pytest.raises(ValueError, match=r"^rate .* does not lie in \[0, 1\]$"):
            perturb_ground_truth(tree, *rates)
