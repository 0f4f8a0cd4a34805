import json
from random import Random

import networkx as nx
import pytest

from dreamcraft.awm import Awm, AwmEdge, AwmError, NodeBelief, remove_cycles, sample_branch
from dreamcraft.tech_tree import Inventory, LearnerConfig, attempt_collect, attempt_craft
from support import beliefs_of, is_acyclic, rebuilt


def truth_frontier(tree, verified):
    """Independent frontier oracle computed straight from the item definitions."""
    out = set()
    for item in tree.items:
        if item in verified:
            continue
        parents = {p for p, _, _ in tree.ground_truth_parents(item)}
        if parents <= verified:
            out.add(item)
    return out


def truth_graph(tree):
    g = nx.DiGraph()
    g.add_nodes_from(tree.items)
    for item in tree.items:
        for parent, _, _ in tree.ground_truth_parents(item):
            g.add_edge(parent, item)
    return g


def verify_from_tree(awm, tree, item):
    awm.verify_node(item, tree.ground_truth_parents(item), craft_yield=tree.definition(item).craft_yield)


def test_frontier_matches_oracle(tree, perfect_awm):
    # The frontier comes in name order.
    assert perfect_awm.frontier() == sorted(truth_frontier(tree, set()))
    assert perfect_awm.frontier() == ["dirt", "flower", "log", "sand", "seeds"]

    verify_from_tree(perfect_awm, tree, "log")
    expected = ["dirt", "flower", "planks", "sand", "seeds"]
    assert perfect_awm.frontier() == expected
    assert perfect_awm.frontier() == sorted(truth_frontier(tree, {"log"}))
    assert perfect_awm.frontier_size() == len(expected)
    perfect_awm.frontier().clear()  # a copy: the graph's frontier is not handed out
    assert perfect_awm.frontier_size() == len(expected)


def test_frontier_empty_when_all_verified(tree, perfect_awm):
    for item in ["log", "sand", "dirt", "flower", "seeds", "planks", "stick",
                 "crafting_table", "wooden_pickaxe", "cobblestone", "boat", "door",
                 "ladder", "stone_pickaxe", "furnace", "glass"]:
        verify_from_tree(perfect_awm, tree, item)
    assert perfect_awm.frontier() == []
    assert perfect_awm.frontier_size() == 0


def test_prune_to_goal_matches_networkx(tree, perfect_awm):
    frontier = perfect_awm.frontier()
    pruned = perfect_awm.prune_to_goal(frontier, "stone_pickaxe")
    oracle = set(frontier) & (nx.ancestors(truth_graph(tree), "stone_pickaxe") | {"stone_pickaxe"})
    assert pruned == sorted(oracle) == ["log"]


def test_prune_to_goal_excludes_dead_ends(tree, perfect_awm):
    verify_from_tree(perfect_awm, tree, "log")
    verify_from_tree(perfect_awm, tree, "planks")
    frontier = perfect_awm.frontier()
    assert "boat" in frontier  # dead end reachable from planks
    assert perfect_awm.prune_to_goal(frontier, "wooden_pickaxe") == ["crafting_table", "stick"]


def test_prune_without_path_returns_frontier_unchanged():
    awm = Awm(nodes={"a", "b", "goal"}, edges={AwmEdge("b", "goal", "ingredient", 1)})
    frontier = awm.frontier()  # a and b are parentless, goal is not frontier? b is.
    given = ["a"]
    pruned = awm.prune_to_goal(given, "goal")
    assert pruned == ["a"] and pruned is not given  # 'a' has no path to goal: a copy comes back
    assert frontier == ["a", "b"]


def test_expand_requirements_wooden_pickaxe(perfect_awm):
    branch = perfect_awm.expand_requirements("wooden_pickaxe")
    assert [(s.item, s.action, s.quantity) for s in branch] == [
        ("log", "collect", 3),
        ("planks", "craft", 12),  # three crafts of yield 4
        ("crafting_table", "craft", 1),
        ("stick", "craft", 4),  # one craft of yield 4
        ("wooden_pickaxe", "craft", 1),
    ]


def test_expand_requirements_single_collectable(perfect_awm):
    branch = perfect_awm.expand_requirements("log")
    assert [(s.item, s.action, s.quantity) for s in branch] == [("log", "collect", 1)]


def simulate_branch(tree, branch, consume_targets=True):
    """Feasibility oracle: run the branch against the world with p=1 policies,
    one call per step for the quantity it adds."""
    inv = Inventory()
    rng = Random(0)
    for step in branch:
        if step.action == "collect":
            out = attempt_collect(
                tree, step.item, inv, LearnerConfig(1.0, 1.0), rng, quantity=step.quantity, tries=step.quantity
            )
        else:
            out = attempt_craft(tree, step.item, inv, quantity=step.quantity)
        if not out.success:
            return False, inv
    return True, inv


def test_expand_requirements_feasible_on_fixture(tree, perfect_awm):
    for target in tree.names():
        ok, _ = simulate_branch(tree, perfect_awm.expand_requirements(target))
        assert ok, target


def test_expand_with_overstated_quantity_still_feasible(tree, perfect_awm):
    # Believe wooden_pickaxe needs one more plank than it really does.
    edges = {e for e in perfect_awm.edges
             if not (e.parent == "planks" and e.child == "wooden_pickaxe")}
    edges.add(AwmEdge("planks", "wooden_pickaxe", "ingredient", 4))
    awm = Awm(nodes=set(perfect_awm.nodes), edges=edges, beliefs=beliefs_of(perfect_awm))
    ok, inv = simulate_branch(tree, awm.expand_requirements("wooden_pickaxe"))
    assert ok
    assert inv.count("planks") >= 1  # surplus left over


def test_sample_branch_verified_yields(tree, perfect_awm):
    verify_from_tree(perfect_awm, tree, "log")
    verify_from_tree(perfect_awm, tree, "planks")
    branch = sample_branch(perfect_awm, ["stick"], Random(0))
    assert [(s.item, s.action, s.quantity) for s in branch] == [
        ("log", "collect", 1),
        ("planks", "craft", 4),
        ("stick", "craft", 4),
    ]


def test_verified_yield_learned_from_scratch(tree):
    # A hypothesis with no yield knowledge plans with yield 1 until planks is
    # verified, after which the observed yield tightens the plan.
    awm = Awm(
        nodes={"log", "planks", "stick"},
        edges={
            AwmEdge("log", "planks", "ingredient", 1),
            AwmEdge("planks", "stick", "ingredient", 2),
        },
        beliefs={
            "log": NodeBelief(collectable=True),
            "planks": NodeBelief(collectable=False),
            "stick": NodeBelief(collectable=False),
        },
    )
    before = awm.expand_requirements("stick")
    assert [(s.item, s.quantity) for s in before] == [("log", 2), ("planks", 2), ("stick", 1)]
    verify_from_tree(awm, tree, "log")
    verify_from_tree(awm, tree, "planks")
    after = awm.expand_requirements("stick")
    assert [(s.item, s.quantity) for s in after] == [("log", 1), ("planks", 4), ("stick", 1)]


def test_sample_branch_deterministic(perfect_awm):
    picks = {sample_branch(perfect_awm, ["log", "sand"], Random(7))[-1].item for _ in range(5)}
    assert len(picks) == 1


def test_sample_branch_rejects_empty(perfect_awm):
    with pytest.raises(ValueError):
        sample_branch(perfect_awm, [], Random(0))


def test_verify_node_corrects_glass_error(tree):
    awm = Awm(nodes=set(tree.items), beliefs={"glass": NodeBelief(collectable=True)})
    observed = {("sand", "ingredient", 1), ("furnace", "workbench", 1)}
    awm.verify_node("glass", observed, craft_yield=1)
    assert "glass" in awm.verified
    assert {(e.parent, e.kind, e.quantity) for e in awm.parents_of("glass")} == observed
    assert awm.belief("glass").collectable is False
    assert [e for e in awm.parents_of("glass") if e.kind == "workbench"] == [
        AwmEdge("furnace", "glass", "workbench", 1)
    ]


def test_verify_node_exact_hypothesis_keeps_edges(tree, perfect_awm):
    before = {e for e in perfect_awm.edges if e.child == "planks"}
    verify_from_tree(perfect_awm, tree, "planks")
    assert {e for e in perfect_awm.edges if e.child == "planks"} == before
    assert "planks" in perfect_awm.verified


def test_verify_node_is_idempotent(tree, perfect_awm):
    verify_from_tree(perfect_awm, tree, "log")
    snapshot = perfect_awm.to_json()
    with pytest.warns(UserWarning):
        perfect_awm.verify_node("log", {("sand", "ingredient", 9)})
    assert perfect_awm.to_json() == snapshot


@pytest.mark.parametrize("method", ["ancestors", "expand_requirements", "verify_node"])
def test_an_unknown_node_is_quoted_on_one_line(perfect_awm, method):
    call = getattr(perfect_awm, method)
    args = ((),) if method == "verify_node" else ()
    with pytest.raises(AwmError, match=r"^unknown node 'a\\nb'$"):
        call("a\nb", *args)
    with pytest.raises(AwmError, match=r"^unknown node 'obsidian'$"):
        call("obsidian", *args)


def test_verify_grows_v_by_one(tree, perfect_awm):
    assert len(perfect_awm.verified) == 0
    verify_from_tree(perfect_awm, tree, "log")
    assert len(perfect_awm.verified) == 1


def test_remove_cycles_workbench_rule():
    # The classic mutual dependency: the table's recipe needs planks while
    # planks is predicted to need the table.
    edges = frozenset({
        AwmEdge("log", "planks", "ingredient", 1),
        AwmEdge("planks", "crafting_table", "ingredient", 4),
        AwmEdge("crafting_table", "planks", "workbench", 1),
    })
    given = set(edges)
    kept = remove_cycles(edges)
    assert edges == given  # the argument comes back unchanged
    assert kept == edges - {AwmEdge("crafting_table", "planks", "workbench", 1)}
    assert is_acyclic(kept)


def test_remove_cycles_mutual_pair_loses_both():
    edges = {
        AwmEdge("spider_eye", "fermented_spider_eye", "ingredient", 1),
        AwmEdge("fermented_spider_eye", "spider_eye", "ingredient", 1),
    }
    assert remove_cycles(edges) == set()
    assert len(edges) == 2  # a set argument is not written either


def test_remove_cycles_acyclic_fixed_point(perfect_awm):
    assert remove_cycles(perfect_awm.edges) == perfect_awm.edges


def test_remove_cycles_breaks_longer_cycles():
    kept = remove_cycles([
        AwmEdge("a", "b", "ingredient", 1),
        AwmEdge("b", "c", "ingredient", 1),
        AwmEdge("c", "a", "ingredient", 1),
    ])
    assert is_acyclic(kept)
    # lexicographically-last edge of the cycle goes
    assert kept == {AwmEdge("a", "b", "ingredient", 1), AwmEdge("b", "c", "ingredient", 1)}


def test_awm_edge_is_a_checked_tuple():
    edge = AwmEdge(parent="log", child="planks", kind="ingredient")
    assert (edge.parent, edge.child, edge.kind, edge.quantity) == ("log", "planks", "ingredient", 1)
    assert edge == AwmEdge("log", "planks", "ingredient", 1) == ("log", "planks", "ingredient", 1)
    assert hash(edge) == hash(("log", "planks", "ingredient", 1))
    tool_edge, other = AwmEdge("log", "planks", "tool"), AwmEdge("a", "z", "ingredient")
    assert sorted([tool_edge, edge, other]) == [other, edge, tool_edge]  # by field, in field order
    with pytest.raises(AwmError, match="self edge"):
        AwmEdge("log", "log", "ingredient")
    with pytest.raises(AwmError, match="positive"):
        AwmEdge(parent="log", child="planks", kind="ingredient", quantity=0)


def test_a_belief_yield_below_one_is_rejected(tree, perfect_awm):
    with pytest.raises(AwmError, match="craft yield must be positive"):
        NodeBelief(collectable=False, craft_yield=0)
    before = perfect_awm.to_json()
    with pytest.raises(AwmError, match="craft yield must be positive"):
        perfect_awm.verify_node("planks", tree.ground_truth_parents("planks"), craft_yield=0)
    assert perfect_awm.to_json() == before  # nothing was written
    # A collectable's observed yield is 1 whatever the caller passes.
    perfect_awm.verify_node("log", set(), craft_yield=0)
    assert perfect_awm.belief("log") == NodeBelief(collectable=True, craft_yield=1)


def test_expand_reports_cycles_defensively():
    awm = Awm(
        nodes={"a", "b", "c", "d"},
        edges={
            AwmEdge("a", "b", "ingredient", 1),
            AwmEdge("b", "a", "ingredient", 1),
            AwmEdge("b", "c", "tool", 1),
            AwmEdge("d", "c", "ingredient", 1),
        },
    )
    # The message names the nodes on the cycle and downstream of it, not d.
    with pytest.raises(AwmError, match=r"^cycle among \['a', 'b', 'c'\]$"):
        awm.expand_requirements("c")


def test_a_write_drops_the_kept_branches_it_changes():
    """Each verification below changes some node's branch, and no kept
    branch outlives a write that changes it: every expansion after the write
    equals that of a rebuilt graph, and reading a belief writes nothing."""
    awm = Awm(
        nodes={"a", "b", "c", "d"},
        edges={AwmEdge("a", "b", "ingredient", 2), AwmEdge("a", "d", "ingredient", 1)},
        beliefs={
            "b": NodeBelief(collectable=False),
            "c": NodeBelief(collectable=False, craft_yield=2),
            "d": NodeBelief(collectable=True),
        },
    )
    assert awm.belief("a") == NodeBelief()

    def expansions(graph):
        return {n: graph.expand_requirements(n) for n in sorted(graph.nodes)}

    writes = [
        lambda: awm.verify_node("b", {("a", "ingredient", 2), ("c", "tool", 1)}),  # adds an edge alone
        lambda: awm.verify_node("d", set()),  # removes an edge alone
        lambda: awm.verify_node("c", set()),  # writes no edge: only the belief in c changes
        lambda: awm.verify_node("a", {("c", "ingredient", 1)}),
    ]
    for write in writes:
        kept = expansions(awm)
        write()
        assert expansions(awm) != kept  # each of these writes changes a branch
        assert expansions(awm) == expansions(rebuilt(awm))


def test_a_write_outside_a_branch_closure_keeps_the_branch():
    """A kept branch reads the incoming edges and the beliefs of its closure
    (the target and its ancestors) alone: writes anywhere else keep the very
    same branch object."""
    awm = Awm(
        nodes={"a", "b", "c", "d"},
        edges={AwmEdge("a", "b", "ingredient", 2), AwmEdge("b", "d", "tool")},
    )
    kept = awm.expand_requirements("b")  # closure {a, b}
    writes = [
        lambda: awm.verify_node("c", {("b", "ingredient", 1)}),  # an edge out of b, and a new belief in c
        lambda: awm.verify_node("d", {("a", "ingredient", 1)}),  # d's edge from b becomes one from a
    ]
    for write in writes:
        write()
        assert awm.expand_requirements("b") is kept
    assert kept == rebuilt(awm).expand_requirements("b")

    awm.verify_node("a", set())  # a's belief, unknown before, becomes collectable
    assert awm.expand_requirements("b") is not kept


def test_verifying_a_correct_hypothesis_keeps_every_kept_branch(tree, perfect_awm, monkeypatch):
    """When the observed parents are the hypothesized edges and the belief is
    the one already held, verification writes nothing a branch or a path set
    reads: every kept branch stays the same object, and the goal's kept path
    set is read again without a new ancestor walk."""
    kept = {n: perfect_awm.expand_requirements(n) for n in tree.names()}
    frontier = perfect_awm.frontier()
    pruned = perfect_awm.prune_to_goal(frontier, "stone_pickaxe")
    walks = []
    monkeypatch.setattr(perfect_awm, "ancestors", walks.append)
    edges = perfect_awm.edges
    for item in perfect_awm.nodes - perfect_awm.verified:
        verify_from_tree(perfect_awm, tree, item)
    assert perfect_awm.edges == edges
    assert all(perfect_awm.expand_requirements(n) is branch for n, branch in kept.items())
    assert perfect_awm.prune_to_goal(frontier, "stone_pickaxe") == pruned
    assert walks == []


def test_verifying_a_new_yield_alone_drops_the_kept_branch():
    """Verification that observes the stored edges and a new yield changes
    only the item's belief, and that alone drops the branches through it."""
    edges = {AwmEdge("x", "y", "ingredient", 1), AwmEdge("y", "z", "ingredient", 4)}
    awm = Awm(nodes={"x", "y", "z"}, edges=edges, beliefs={"y": NodeBelief(collectable=False)})
    kept = awm.expand_requirements("z")
    assert [step.quantity for step in kept] == [4, 4, 1]  # x, y, z
    awm.verify_node("y", {("x", "ingredient", 1)}, craft_yield=2)
    assert awm.edges == edges
    assert [step.quantity for step in awm.expand_requirements("z")] == [2, 4, 1]


def test_awm_json_round_trip(tree, perfect_awm):
    """The exported JSON parses back to the graph's nodes, edges, verified
    set and beliefs."""
    verify_from_tree(perfect_awm, tree, "log")
    doc = json.loads(perfect_awm.to_json())
    assert doc["nodes"] == sorted(perfect_awm.nodes)
    assert [tuple(e.values()) for e in doc["edges"]] == sorted(perfect_awm.edges)
    assert doc["verified"] == ["log"]
    # Tools and workbenches are edges, so a belief holds only these two keys.
    assert doc["beliefs"]["planks"] == {"collectable": False, "craft_yield": 4}


def test_awm_json_lists_the_unknown_belief_of_every_node():
    # No belief is stored for either node; the export still names both.
    doc = json.loads(Awm({"a", "b"}).to_json())
    unknown = {"collectable": None, "craft_yield": 1}
    assert doc["beliefs"] == {"a": unknown, "b": unknown}
