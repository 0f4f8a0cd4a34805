"""Invariant suites driven by generated worlds, hypotheses, and seeds."""
from random import Random

import hypothesis.strategies as st
from hypothesis import given, settings

from dreamcraft.agent import AgentConfig, run, run_with_state
from dreamcraft.awm import Awm, AwmEdge, remove_cycles
from dreamcraft.hypotheses import (
    DocumentSyntaxError,
    ErrorSpec,
    ParsedEntry,
    ParseResult,
    ground_truth_awm,
    parse_recipe_dict,
    perturb_ground_truth,
    serialize_recipe_dict,
)
from dreamcraft.policy import LearnerConfig
from dreamcraft.tech_tree import (
    Inventory,
    ItemDef,
    RecipeEntry,
    attempt_collect,
    attempt_craft,
    make_tree,
)


@st.composite
def tech_trees(draw, max_items=12):
    """Random acyclic crafting worlds: collectables (sometimes tool-gated),
    craftables over earlier items, occasional workbench gates."""
    n = draw(st.integers(min_value=2, max_value=max_items))
    names = [f"item{i:02d}" for i in range(n)]
    if n >= 3 and draw(st.booleans()):
        names[1] = "crafting_table"
    if n >= 4 and draw(st.booleans()):
        names[2] = "furnace"
    defs = [ItemDef(names[0], collectable=True)]
    for i in range(1, n):
        name = names[i]
        earlier = names[:i]
        if draw(st.booleans()):
            tool = None
            if draw(st.integers(0, 3)) == 0:
                tool = earlier[draw(st.integers(0, i - 1))]
            defs.append(ItemDef(name, collectable=True, required_tool=tool))
        else:
            k = draw(st.integers(1, min(3, i)))
            picks = draw(
                st.lists(st.sampled_from(earlier), min_size=k, max_size=k, unique=True)
            )
            recipe = tuple(RecipeEntry(p, draw(st.integers(1, 3))) for p in sorted(picks))
            table_gate = "crafting_table" in earlier and draw(st.integers(0, 3)) == 0
            furnace_gate = "furnace" in earlier and draw(st.integers(0, 3)) == 0
            defs.append(
                ItemDef(
                    name,
                    collectable=False,
                    requires_crafting_table=table_gate and name != "crafting_table",
                    requires_furnace=furnace_gate and name != "furnace",
                    recipe=recipe,
                    craft_yield=draw(st.integers(1, 3)),
                )
            )
    return make_tree(defs)


@st.composite
def digraphs(draw):
    n = draw(st.integers(2, 7))
    nodes = [f"n{i}" for i in range(n)]
    edges = set()
    for _ in range(draw(st.integers(0, 14))):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        if a == b:
            continue
        kind = draw(st.sampled_from(["ingredient", "tool", "workbench"]))
        edges.add(AwmEdge(a, b, kind, draw(st.integers(1, 3))))
    return Awm(nodes=set(nodes), edges=edges)


@given(tech_trees(), st.data())
@settings(max_examples=120, deadline=None)
def test_craft_conserves_and_spares_tools(tree, data):
    craftables = tree.craftables()
    if not craftables:
        return
    item = data.draw(st.sampled_from(craftables))
    d = tree.definition(item)
    inv = Inventory()
    for entry in d.recipe:
        inv.add(entry.item, entry.quantity + data.draw(st.integers(0, 2)))
    if d.requires_crafting_table:
        inv.add("crafting_table", 1)
    if d.requires_furnace:
        inv.add("furnace", 1)
    before = inv.copy()
    out = attempt_craft(tree, item, inv)
    assert out.success
    for entry in d.recipe:
        expected = before.count(entry.item) - entry.quantity
        if entry.item == item:
            expected += d.craft_yield
        assert inv.count(entry.item) == expected
    if d.requires_crafting_table and "crafting_table" not in {e.item for e in d.recipe}:
        assert inv.count("crafting_table") == before.count("crafting_table")
    if d.requires_furnace and "furnace" not in {e.item for e in d.recipe}:
        assert inv.count("furnace") == before.count("furnace")
    gained = inv.count(item) - before.count(item)
    if item not in {e.item for e in d.recipe}:
        assert gained == d.craft_yield


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_collect_gating_and_charge(tree, seed):
    gated = [i for i in tree.collectables() if tree.definition(i).required_tool]
    if not gated:
        return
    item = gated[0]
    out = attempt_collect(tree, item, Inventory(), 1.0, Random(seed))
    assert not out.success and out.steps == 1000


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_remove_cycles_always_acyclic(awm):
    fixed = remove_cycles(awm)
    assert fixed.is_acyclic()
    if awm.is_acyclic():
        assert fixed.edges == awm.edges  # acyclic graphs are fixed points


def check_index_against_scans(awm):
    """Every indexed query equals a brute-force scan over `awm.edges`."""
    edges = awm.edges
    verified = set(awm.verified)
    assert verified <= set(awm.nodes)
    assert awm.frontier() == {
        n
        for n in awm.nodes
        if n not in verified and all(e.parent in verified for e in edges if e.child == n)
    }
    for n in awm.nodes:
        assert awm.parents_of(n) == sorted(e for e in edges if e.child == n)
        assert awm.children_of(n) == sorted(e for e in edges if e.parent == n)
        closure = {e.parent for e in edges if e.child == n}
        while True:
            more = {e.parent for e in edges if e.child in closure} - closure
            if not more:
                break
            closure |= more
        assert awm.ancestors(n) == closure
        b = awm.beliefs.get(n)
        labelled = b is not None and b.collectable is not None
        expected = b.collectable if labelled else not any(
            e.child == n and e.kind == "ingredient" for e in edges
        )
        assert awm.believed_collectable(n) == expected


@given(digraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_index_matches_edge_scans_under_writes(awm, data):
    # "ghost" starts outside the graph: edges may name it before it is a node.
    names = sorted(awm.nodes) + ["ghost"]
    kinds = st.sampled_from(["ingredient", "tool", "workbench"])
    check_index_against_scans(awm)
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["add_edge", "discard_edge", "verify_node", "add_node"]))
        if op == "add_edge":
            a, b = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
            awm.add_edge(AwmEdge(a, b, data.draw(kinds), data.draw(st.integers(1, 3))))
        elif op == "discard_edge" and awm.edges:
            awm.discard_edge(data.draw(st.sampled_from(sorted(awm.edges))))
        elif op == "verify_node" and awm.unverified():
            item = data.draw(st.sampled_from(sorted(awm.unverified())))
            parents = data.draw(
                st.lists(st.sampled_from([n for n in names if n != item]), max_size=3, unique=True)
            )
            awm.verify_node(item, {(p, data.draw(kinds), data.draw(st.integers(1, 3))) for p in parents})
        elif op == "add_node":
            awm.add_node("ghost")
        check_index_against_scans(awm)
    clone = awm.copy()
    check_index_against_scans(clone)
    assert (clone.nodes, clone.edges, clone.verified) == (awm.nodes, awm.edges, awm.verified)


@given(tech_trees(), st.data())
@settings(max_examples=100, deadline=None)
def test_expand_requirements_feasible(tree, data):
    awm = ground_truth_awm(tree)
    target = data.draw(st.sampled_from(tree.names()))
    branch = awm.expand_requirements(target)
    inv = Inventory()
    rng = Random(0)
    for step in branch.steps:
        for _ in range(step.repetitions):
            if step.action == "collect":
                assert attempt_collect(tree, step.item, inv, 1.0, rng).success
            else:
                assert attempt_craft(tree, step.item, inv).success
    assert inv.count(target) >= 1


@given(tech_trees(), st.floats(0, 0.5), st.floats(0, 0.5), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_run_soundness_under_errors(tree, insert_rate, delete_rate, seed):
    awm = perturb_ground_truth(tree, ErrorSpec(insert_rate, delete_rate, distractor=tree.names()[0], seed=seed))
    config = AgentConfig(
        mode="open_ended",
        c0=3,
        max_iterations=25,
        learner=LearnerConfig(p0=0.7, p_max=0.95, tau=2.0),
        retry_cap=4,
        seed=seed,
    )
    _, state = run_with_state(config, tree, awm)
    for item in state.awm.verified:
        got = {(e.parent, e.kind, e.quantity) for e in state.awm.parents_of(item)}
        assert got == tree.ground_truth_parents(item), item
    assert all(n >= 0 for n in state.inventory.as_dict().values())
    assert state.awm.is_acyclic()
    for node in state.awm.frontier():
        assert node not in state.awm.verified
        assert all(
            e.parent in state.awm.verified for e in state.awm.edges if e.child == node
        )


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_run_deterministic_on_random_worlds(tree, seed):
    config = AgentConfig(mode="open_ended", c0=3, max_iterations=15, seed=seed)
    first = run(config, tree, ground_truth_awm(tree))
    second = run(config, tree, ground_truth_awm(tree))
    assert first == second


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0.1, 20))
@settings(max_examples=120, deadline=None)
def test_learning_curve_monotone_and_bounded(p0, span, tau):
    p_max = p0 + (1 - p0) * span
    cfg = LearnerConfig(p0=p0, p_max=p_max, tau=tau)
    probs = [cfg.success_prob(k) for k in range(101)]
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert all(-1e-12 <= p <= p_max + 1e-12 for p in probs)


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_perturb_identity_at_zero_rates(tree, seed):
    truth = ground_truth_awm(tree)
    perturbed = perturb_ground_truth(
        tree, ErrorSpec(0.0, 0.0, distractor=tree.names()[0], seed=seed)
    )
    assert perturbed.edges == truth.edges


parsed_entries = st.builds(
    ParsedEntry,
    item=st.text(),
    requires_crafting_table=st.booleans(),
    requires_furnace=st.booleans(),
    required_tool=st.none() | st.text(),
    recipe=st.lists(st.tuples(st.text(min_size=1), st.integers(1, 10**6)), max_size=3).map(tuple),
)


@given(st.lists(parsed_entries, max_size=4))
@settings(max_examples=200, deadline=None)
def test_serialize_round_trips_arbitrary_names(entries):
    result = parse_recipe_dict(serialize_recipe_dict(entries))
    assert result.entries == entries
    assert result.skipped == []


# Pieces of recipe documents, so that generated text reaches past the first token.
DOCUMENT_PIECES = [
    "{", "}", "[", "]", ",", ":", "=", " ", "\n", "#", '"', "\\", "-", "0", "12", "²", "½",
    "True", "None", "item_info", '"recipe"', '"item"', '"quantity"', '"a"', '"b\\"c"',
]


@given(st.lists(st.sampled_from(DOCUMENT_PIECES) | st.text(max_size=3), max_size=40).map("".join) | st.text())
@settings(max_examples=400, deadline=None)
def test_parse_returns_a_result_or_a_syntax_error(text):
    try:
        result = parse_recipe_dict(text)
    except DocumentSyntaxError as exc:
        assert exc.line >= 1 and exc.column >= 1
        assert exc.line <= text.count("\n") + 1
    else:
        assert isinstance(result, ParseResult)
        assert all(1 <= s.line <= text.count("\n") + 1 for s in result.skipped)
