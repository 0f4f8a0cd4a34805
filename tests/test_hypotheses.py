import http.server
import json
import statistics
import threading

import pytest

from dreamcraft.awm import Awm, AwmEdge
from dreamcraft.hypotheses import (
    DEFAULT_PROMPT,
    DocumentSyntaxError,
    ErrorSpec,
    FetchError,
    ParsedEntry,
    build_hypothesized_awm,
    empty_hypothesis,
    fetch_llm_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    score_hypothesis,
)
from dreamcraft.tech_tree import load_tree


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_fixture_document(llm_document):
    result = parse_recipe_dict(llm_document)
    by_name = {e.item: e for e in result.entries}

    diamond = by_name["diamond"]
    assert diamond.collectable and diamond.required_tool == "iron_pickaxe"

    pickaxe = by_name["diamond_pickaxe"]
    assert pickaxe.requires_crafting_table
    assert dict(pickaxe.recipe) == {"stick": 2, "diamond": 3}  # quoted "2"/"3" coerced

    assert [(s.key, s.line) for s in result.skipped] == [("torch", 183), ("brown_mushroom_block", 194)]
    reasons = {s.key: s.reason for s in result.skipped}
    assert "recipe" in reasons["torch"]


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
    assert result.entries[0].collectable


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
    text = '{"a": {"recipe": [{"item": "b", "quantity": "lots"}]}, "c": {"recipe": []}}'
    result = parse_recipe_dict(text)
    assert [e.item for e in result.entries] == ["c"]
    assert result.skipped[0].key == "a"


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
    assert awm.ingredient_parents("crafting_table") == {"planks": 4}
    assert awm.is_acyclic()


def test_build_awm_empty_entries(tree):
    awm = build_hypothesized_awm([], set(tree.items))
    assert awm.nodes == set(tree.items)
    assert awm.edges == set()


def test_empty_hypothesis(tree):
    awm = empty_hypothesis(set(tree.items))
    assert len(awm.nodes) == 16 and not awm.edges and not awm.verified
    assert awm.frontier() == set(tree.items)
    assert empty_hypothesis(set()).nodes == set()


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------


def test_perturb_zero_rates_is_identity(tree):
    truth = ground_truth_awm(tree)
    perturbed = perturb_ground_truth(tree, ErrorSpec(0.0, 0.0, seed=9))
    assert perturbed.edges == truth.edges
    assert perturbed.nodes == truth.nodes


def test_perturb_full_insert_adds_sand_everywhere(tree):
    perturbed = perturb_ground_truth(tree, ErrorSpec(1.0, 0.0, seed=3))
    truth = ground_truth_awm(tree)
    for item in tree.items:
        if item == "sand":
            continue
        assert AwmEdge("sand", item, "ingredient", 1) in perturbed.edges, item
    # nothing else changed
    assert {e for e in perturbed.edges if e.parent != "sand"} == {
        e for e in truth.edges if e.parent != "sand"
    }


def test_perturb_deterministic(tree):
    spec = ErrorSpec(0.3, 0.4, seed=11)
    assert perturb_ground_truth(tree, spec).edges == perturb_ground_truth(tree, spec).edges


def test_perturb_unknown_distractor(tree):
    with pytest.raises(ValueError):
        perturb_ground_truth(tree, ErrorSpec(0.1, 0.1, distractor="obsidian"))


def test_perturb_insert_count_grows_with_rate(tree):
    truth_edges = ground_truth_awm(tree).edges

    def mean_inserted(rate):
        counts = []
        for seed in range(40):
            p = perturb_ground_truth(tree, ErrorSpec(rate, 0.0, seed=seed))
            counts.append(len(p.edges - truth_edges))
        return statistics.mean(counts)

    low, high = mean_inserted(0.1), mean_inserted(0.5)
    assert low < high
    assert 0.2 * 15 < high < 0.8 * 15  # roughly linear in the rate


def test_perturb_keeps_graph_acyclic(tree):
    for seed in range(10):
        assert perturb_ground_truth(tree, ErrorSpec(0.5, 0.5, seed=seed)).is_acyclic()


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def test_score_identity_is_perfect(tree):
    report = score_hypothesis(ground_truth_awm(tree), tree, set(tree.items))
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
    report = score_hypothesis(awm, tree, set(tree.items))
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
    report = score_hypothesis(awm, tree, set(tree.items))
    assert report.qty_abs_error == pytest.approx(1.0 / 3)
    assert report.qty_avg_error == pytest.approx(-1.0 / 3)
    # restricted to the one mismatched pair
    only_box = score_hypothesis(awm, tree, {"box"})
    assert only_box.qty_abs_error == pytest.approx(0.5)
    assert only_box.qty_avg_error == pytest.approx(-0.5)


def test_score_missing_item_counts_all_wrong(tree):
    truth = ground_truth_awm(tree)
    awm = Awm(
        nodes=truth.nodes - {"glass"},
        edges={e for e in truth.edges if e.child != "glass"},
        beliefs=truth.beliefs,
    )
    report = score_hypothesis(awm, tree, {"glass", "log"})
    assert report.collectable_vs_craftable_acc == 50.0
    assert report.pct_items_missing_deps == 50.0


def test_score_report_serialization(tree):
    report = score_hypothesis(ground_truth_awm(tree), tree, set(tree.items))
    text = report.to_text()
    assert "recipe_exact_acc=100.0" in text
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("collectable_vs_craftable_acc,")
    assert isinstance(report.as_dict(), dict)


# ---------------------------------------------------------------------------
# Live fetch against a local mock endpoint
# ---------------------------------------------------------------------------

COMPLETION = """\
        "requires_crafting_table": False,
        "requires_furnace": False,
        "required_tool": None,
        "recipe": []
    },"""


class _Completer(http.server.BaseHTTPRequestHandler):
    requests_seen = []
    auth_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(body["prompt"])
        if self.headers.get("Authorization"):
            type(self).auth_seen.append(self.headers["Authorization"])
        payload = json.dumps({"choices": [{"text": COMPLETION}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Completer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Completer.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/completions"
    server.shutdown()


def test_fetch_round_trip(mock_endpoint):
    doc = fetch_llm_hypothesis(mock_endpoint, DEFAULT_PROMPT, ["log", "sand"])
    assert len(_Completer.requests_seen) == 2
    assert '"log": {' in _Completer.requests_seen[0]
    result = parse_recipe_dict(doc)
    assert [e.item for e in result.entries] == ["log", "sand"]
    assert all(e.collectable for e in result.entries)


def test_fetch_sends_env_credentials(mock_endpoint, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sekrit")
    _Completer.auth_seen = []
    fetch_llm_hypothesis(mock_endpoint, DEFAULT_PROMPT, ["log"])
    assert _Completer.auth_seen == ["Bearer sekrit"]


def test_fetch_unreachable_endpoint_raises():
    with pytest.raises(FetchError, match="log"):
        fetch_llm_hypothesis("http://127.0.0.1:9/nope", DEFAULT_PROMPT, ["log"], timeout=0.5)


def test_error_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec(1.5, 0.0)
    with pytest.raises(ValueError):
        ErrorSpec(0.0, -0.1)
