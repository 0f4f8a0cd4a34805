"""Invariant suites driven by generated worlds, hypotheses, and seeds."""
import itertools
from random import Random
from unittest import mock

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from dreamcraft import agent, hypotheses
from dreamcraft.agent import AgentConfig, AgentState, DreamSample, run_with_state
from dreamcraft.awm import Awm, AwmEdge, AwmError, NodeBelief, remove_cycles
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import build_hypothesis
from dreamcraft.hypotheses import (
    DocumentSyntaxError,
    ParsedEntry,
    ParseResult,
    build_hypothesized_awm,
    empty_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    perturb_ground_truth,
    serialize_recipe_dict,
)
from dreamcraft.policy import acquire, execute_subgoal
from dreamcraft.tech_tree import (
    CRAFTING_TABLE,
    FURNACE,
    Inventory,
    ItemDef,
    COLLECT_STEPS,
    LearnerConfig,
    Outcome,
    RecipeEntry,
    attempt_collect,
    attempt_craft,
    load_tree_file,
    make_tree,
    topological_order,
)
from support import (
    BACKTRACKING,
    beliefs_of,
    build_hypothesized_awm_reference,
    check_stored_parents,
    expand_by_ancestors,
    is_acyclic,
    normalize_aliases_reference,
    parse_reference,
    perturb_with_distractor,
    prune_by_ancestors,
    rebuilt,
    success_prob,
    tokens,
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
    if draw(st.booleans()):
        # An edge may name a parent that is not a node: "ghost".
        edges.add(AwmEdge("ghost", draw(st.sampled_from(nodes)), "tool"))
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
    before = {i: inv.count(i) for i in tree.items}
    out = attempt_craft(tree, item, inv)
    assert out.success
    for entry in d.recipe:
        expected = before[entry.item] - entry.quantity
        if entry.item == item:
            expected += d.craft_yield
        assert inv.count(entry.item) == expected
    if d.requires_crafting_table and "crafting_table" not in {e.item for e in d.recipe}:
        assert inv.count("crafting_table") == before["crafting_table"]
    if d.requires_furnace and "furnace" not in {e.item for e in d.recipe}:
        assert inv.count("furnace") == before["furnace"]
    gained = inv.count(item) - before[item]
    if item not in {e.item for e in d.recipe}:
        assert gained == d.craft_yield


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_collect_gating_and_charge(tree, seed):
    gated = [i for i in tree.collectables() if tree.definition(i).required_tool]
    if not gated:
        return
    item = gated[0]
    out = attempt_collect(tree, item, Inventory(), LearnerConfig(1.0, 1.0), Random(seed))
    assert not out.success and out.steps == 1000


def per_attempt_acquire(state, config, item, action, quantity, retry_cap):
    """The per-attempt executor that the batch forms replace, kept as their
    reference: one collect or craft attempt per turn of the loop, with the
    simulator's rules written out for a single attempt. A collect try costs
    one episode and `retry_cap` bounds the collect tries; a craft costs
    nothing and goes on until `quantity` more are held or a craft is
    unaffordable. The steps are charged to the state, and each collect try
    is counted in its attempts."""
    tree, inventory, rng = state.tree, state.inventory, state.rng
    steps = tries = 0
    d = tree.items.get(item)
    wanted = inventory.count(item) + quantity
    while inventory.count(item) < wanted and (action != "collect" or tries < retry_cap):
        tries += 1
        if action == "collect":
            attempts = state.attempts.get(item, 0)
            state.attempts[item] = attempts + 1
            steps += COLLECT_STEPS
            if d is None or not d.collectable:
                continue
            p = success_prob(config.learner, attempts)
            assert 0.0 <= p <= 1.0
            if d.required_tool is not None and inventory.count(d.required_tool) < 1:
                continue
            if rng.random() < p:
                inventory.add(item, 1)
        else:
            if (
                d is None
                or d.collectable
                or (d.requires_crafting_table and inventory.count(CRAFTING_TABLE) < 1)
                or (d.requires_furnace and inventory.count(FURNACE) < 1)
                or any(inventory.count(e.item) < e.quantity for e in d.recipe)
            ):
                break  # deterministic given the inventory; retrying cannot help
            for e in d.recipe:
                inventory.consume(e.item, e.quantity)
            inventory.add(item, d.craft_yield)
    state.total_env_steps += steps
    return Outcome(inventory.count(item) >= wanted, steps, tries)


def check_batch_against_per_attempt(tree, start, item, action, quantity, retry_cap, learner, attempts, seed):
    """Run `acquire`, then from where it left off one default `execute_subgoal`
    call and one default `attempt_collect` or `attempt_craft` call (with a
    flat curve at p0, as the random baseline calls it), on identical worlds
    with the batch forms and with the per-attempt reference; the outcomes and
    every piece of state must agree."""
    names = tree.names() + ["unobtainium"]
    config = AgentConfig(learner=learner, retry_cap=retry_cap)
    graph = empty_hypothesis(set(tree.items))  # no executor reads it

    def world():
        return AgentState(tree, graph, attempts=dict(attempts), inventory=Inventory(start), rng=Random(seed))

    state, ref = world(), world()
    inv, rng = state.inventory, state.rng
    # The raw simulator call charges and counts nothing, so its reference
    # runs on the same inventory and draws but a state of its own.
    fixed = AgentConfig(learner=LearnerConfig(p0=learner.p0, p_max=learner.p0))
    fixed_ref = AgentState(tree, graph, inventory=ref.inventory, rng=ref.rng)
    calls = [
        (lambda: acquire(state, config, item, action, quantity),
         lambda: per_attempt_acquire(ref, config, item, action, quantity, retry_cap)),
        (lambda: execute_subgoal(state, config, item, action),
         lambda: per_attempt_acquire(ref, config, item, action, 1, 1)),
        (lambda: attempt_collect(tree, item, inv, fixed.learner, rng) if action == "collect"
         else attempt_craft(tree, item, inv),
         lambda: per_attempt_acquire(fixed_ref, fixed, item, action, 1, 1)),
    ]
    for batch, reference in calls:
        assert batch() == reference()
        assert {n: inv.count(n) for n in names} == {n: ref.inventory.count(n) for n in names}
        assert state.attempts == ref.attempts
        assert state.total_env_steps == ref.total_env_steps
        assert rng.getstate() == ref.rng.getstate()


@given(tech_trees(), st.data())
@settings(max_examples=300, deadline=None)
def test_batch_forms_match_the_per_attempt_loop(tree, data):
    # Unknown items, craft-only collects and collectable crafts are drawn too;
    # half the draws pick a craftable item.
    names = tree.names() + ["unobtainium"]
    start = data.draw(st.dictionaries(st.sampled_from(names), st.integers(0, 5)))
    item = data.draw(st.sampled_from(names) | st.sampled_from(tree.craftables() or names))
    action = data.draw(st.sampled_from(["collect", "craft"]))
    retry_cap = data.draw(st.integers(1, 12))
    # Stock and demand reach up to three crafts or collects past the retry
    # cap, and often the most, so that a cap on crafts would show.
    most = retry_cap + 3
    d = tree.items.get(item)
    if d is not None and d.recipe:
        # Stock the recipe for 0 to `most` crafts plus a remainder, and the
        # workbenches that are not ingredients maybe, so that the gates and k matter.
        for e in d.recipe:
            crafts = data.draw(st.just(most) | st.integers(0, most))
            start[e.item] = e.quantity * crafts + data.draw(st.integers(0, e.quantity - 1))
        for bench, gated in ((CRAFTING_TABLE, d.requires_crafting_table), (FURNACE, d.requires_furnace)):
            if gated and bench not in {e.item for e in d.recipe}:
                start[bench] = data.draw(st.integers(0, 1))
    largest = most * (d.craft_yield if d is not None else 1)
    p0 = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    p_max = data.draw(st.just(p0) | st.floats(p0, 1))
    check_batch_against_per_attempt(
        tree,
        start,
        item,
        action,
        quantity=data.draw(st.just(largest) | st.integers(1, largest)),
        retry_cap=retry_cap,
        learner=LearnerConfig(p0=p0, p_max=p_max, tau=data.draw(st.floats(0.1, 10))),
        attempts=data.draw(st.dictionaries(st.sampled_from(names), st.integers(0, 20), max_size=3)),
        seed=data.draw(st.integers(0, 2**16)),
    )


GATED_TREE = make_tree([
    ItemDef("log", collectable=True),
    ItemDef("stone", collectable=True, required_tool="log"),
    ItemDef("planks", collectable=False, recipe=(RecipeEntry("log", 1),), craft_yield=4),
    ItemDef("crafting_table", collectable=False, recipe=(RecipeEntry("planks", 4),)),
    ItemDef("furnace", collectable=False, requires_crafting_table=True, recipe=(RecipeEntry("stone", 8),)),
    ItemDef("ingot", collectable=False, requires_furnace=True, recipe=(RecipeEntry("stone", 2),)),
    ItemDef(
        "forge",
        collectable=False,
        requires_crafting_table=True,
        requires_furnace=True,
        recipe=(RecipeEntry("crafting_table", 1), RecipeEntry("furnace", 2), RecipeEntry("planks", 3)),
        craft_yield=2,
    ),
])


def test_batch_forms_match_the_per_attempt_loop_on_every_gate():
    # Every workbench, tool and stock combination of a small grid: a forge
    # consumes a furnace and a crafting table that it also needs as
    # workbenches, a furnace and an ingot need one workbench each, planks
    # yield 4 and stone needs a log as its tool.
    learner = LearnerConfig(p0=0.5, p_max=0.9, tau=2.0)
    seed = 0
    for table, furnace, log, stone, planks in itertools.product((0, 1, 2), (0, 1, 2), (0, 1), (0, 2, 9), (0, 3, 7)):
        start = {"crafting_table": table, "furnace": furnace, "log": log, "stone": stone, "planks": planks}
        for item in GATED_TREE.names():
            for action, quantity, retry_cap in itertools.product(("collect", "craft"), (1, 2, 4), (1, 3)):
                seed += 1
                check_batch_against_per_attempt(
                    GATED_TREE, start, item, action, quantity, retry_cap, learner, {}, seed
                )


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_remove_cycles_always_acyclic(awm):
    edges = awm.edges
    kept = remove_cycles(edges)
    assert edges == awm.edges  # the argument is left as it is
    assert is_acyclic(kept)
    if is_acyclic(edges):
        assert kept == edges  # acyclic edge sets are kept whole


def check_index_against_scans(awm):
    """Every indexed query equals a brute-force scan over `awm.edges`, and
    the nodes and the frontier come in name order. Each node's goal pruning
    equals the reference from a fresh `ancestors` walk; run before every
    write, this keeps every goal's path set, so a set the write left stale
    shows at the next check."""
    edges = awm.edges
    verified = set(awm.verified)
    assert verified <= set(awm.nodes)
    assert list(awm.nodes) == sorted(awm.nodes)
    frontier = awm.frontier()
    assert frontier == sorted(
        n
        for n in awm.nodes
        if n not in verified and all(e.parent in verified for e in edges if e.child == n)
    )
    for n in awm.nodes:
        assert awm.prune_to_goal(frontier, n) == prune_by_ancestors(awm, frontier, n), n
        assert awm.parents_of(n) == sorted(e for e in edges if e.child == n)
        closure = {e.parent for e in edges if e.child == n}
        while True:
            more = {e.parent for e in edges if e.child in closure} - closure
            if not more:
                break
            closure |= more
        assert awm.ancestors(n) == closure
        b = awm.belief(n)
        expected = b.collectable if b.collectable is not None else not any(
            e.child == n and e.kind == "ingredient" for e in edges
        )
        assert awm.believed_collectable(n) == expected


def _find_cycle_from_scratch(edges):
    """The edge list of the first cycle a recursive depth-first search over
    the edges meets (roots and children in sorted order), or None."""
    names = {e.parent for e in edges} | {e.child for e in edges}
    color = dict.fromkeys(names, 0)
    path = []

    def dfs(node):
        color[node] = 1
        for e in sorted(e for e in edges if e.parent == node):
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

    for n in sorted(names):
        if color[n] == 0:
            found = dfs(n)
            if found:
                return found
    return None


def remove_cycles_by_restarting(edges):
    """Reference for `remove_cycles`: the same two rules, then the search is
    run again from scratch after every edge it drops."""
    edges = set(edges)
    special = {e.parent for e in edges if e.kind == "tool" or e.parent in ("crafting_table", "furnace")}
    for node in sorted(special):
        own_recipe = {e.parent for e in edges if e.child == node and e.kind == "ingredient"}
        edges -= {e for e in edges if e.parent == node and e.child in own_recipe}
    pairs = {(e.parent, e.child) for e in edges}
    edges = {e for e in edges if (e.child, e.parent) not in pairs}
    while (cycle := _find_cycle_from_scratch(edges)) is not None:
        edges.remove(max(cycle, key=lambda e: (e.parent, e.child, e.kind)))
    return edges


@st.composite
def cyclic_digraphs(draw):
    """Graphs rich in cycles, sometimes with a workbench or tool node."""
    n = draw(st.integers(2, 9))
    nodes = [f"n{i}" for i in range(n)]
    if draw(st.booleans()):
        nodes[0] = "crafting_table"
    edges = set()
    for _ in range(draw(st.integers(0, 24))):
        a, b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["ingredient", "ingredient", "tool", "workbench"]))
        edges.add(AwmEdge(a, b, kind, draw(st.integers(1, 3))))
    return Awm(nodes=set(nodes), edges=edges)


@given(digraphs() | cyclic_digraphs())
@settings(max_examples=300, deadline=None)
def test_remove_cycles_drops_what_restarting_the_search_drops(awm):
    kept = remove_cycles(awm.edges)
    assert kept == remove_cycles_by_restarting(awm.edges)
    assert is_acyclic(kept)


def _snapshot(awm):
    beliefs = {n: (b.collectable, b.craft_yield) for n, b in beliefs_of(awm).items()}
    return set(awm.nodes), awm.edges, set(awm.verified), awm.frontier(), beliefs


def _random_verification(awm, names, data):
    """Verify one unverified node with random observed parents, "ghost"
    among them."""
    kinds = st.sampled_from(["ingredient", "tool", "workbench"])
    item = data.draw(st.sampled_from(sorted(awm.nodes - awm.verified)))
    parents = data.draw(st.lists(st.sampled_from([n for n in names if n != item]), max_size=3, unique=True))
    observed = {(p, data.draw(kinds), data.draw(st.integers(1, 3))) for p in parents}
    awm.verify_node(item, observed, craft_yield=data.draw(st.integers(1, 3)))


def _expansion(awm, node):
    try:
        return awm.expand_requirements(node)
    except AwmError as exc:
        return str(exc)


def check_branches_against_a_rebuilt_graph(awm):
    """Every node's branch, kept from before the last verification or not,
    equals the one a graph rebuilt from the nodes, edges and beliefs
    expands; expanding writes nothing."""
    before = _snapshot(awm)
    one_pass = rebuilt(awm)
    for n in sorted(awm.nodes):
        assert _expansion(awm, n) == _expansion(one_pass, n), n
    assert _snapshot(awm) == before


@st.composite
def expansion_graphs(draw):
    """Random digraphs, cycles included, with random beliefs. Some hold an
    edge from the non-node "ghost" or a second edge, of another kind, between
    the parent and child of an edge."""
    awm = draw(digraphs() | cyclic_digraphs())
    nodes = sorted(awm.nodes)
    edges = set(awm.edges)
    kinds = ["ingredient", "tool", "workbench"]
    if draw(st.booleans()):
        edges.add(AwmEdge("ghost", draw(st.sampled_from(nodes)), draw(st.sampled_from(kinds)), draw(st.integers(1, 3))))
    if edges and draw(st.booleans()):
        e = draw(st.sampled_from(sorted(edges)))
        kind = draw(st.sampled_from([k for k in kinds if k != e.kind]))
        edges.add(AwmEdge(e.parent, e.child, kind, draw(st.integers(1, 3))))
    labelled = draw(st.lists(st.sampled_from(nodes), unique=True))
    beliefs = {n: NodeBelief(draw(st.none() | st.booleans()), draw(st.integers(1, 4))) for n in labelled}
    return Awm(nodes, edges, beliefs)


@given(expansion_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_index_matches_edge_scans_under_writes(awm, data):
    # The graphs hold random edges, cycles and edges from the non-node
    # "ghost" among them, and verification, the one write, may observe it.
    names = sorted(awm.nodes) + ["ghost"]
    check_index_against_scans(awm)
    check_branches_against_a_rebuilt_graph(awm)
    for _ in range(data.draw(st.integers(1, len(awm.nodes)))):
        _random_verification(awm, names, data)
        check_index_against_scans(awm)
        check_branches_against_a_rebuilt_graph(awm)


def _reference_expansion(awm, node):
    try:
        return expand_by_ancestors(awm, node)
    except AwmError as exc:
        return str(exc)


@given(expansion_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_expand_requirements_matches_the_reference(awm, data):
    # Targets in a random order, so later ones may meet kept branches; the
    # non-node "ghost" is one of them.
    for target in data.draw(st.permutations(sorted(awm.nodes) + ["ghost"])):
        assert _expansion(awm, target) == _reference_expansion(awm, target), target


@given(tech_trees(), st.data())
@settings(max_examples=100, deadline=None)
def test_verifying_the_stored_parents_keeps_every_kept_branch(tree, data):
    check_stored_parents(tree)
    awm = ground_truth_awm(tree)
    kept = {n: awm.expand_requirements(n) for n in tree.names()}
    for item in data.draw(st.permutations(tree.names())):
        awm.verify_node(item, tree.ground_truth_parents(item), craft_yield=tree.definition(item).craft_yield)
        assert all(awm.expand_requirements(n) is branch for n, branch in kept.items()), item


@given(tech_trees(), st.data())
@settings(max_examples=100, deadline=None)
def test_expand_requirements_feasible(tree, data):
    awm = ground_truth_awm(tree)
    target = data.draw(st.sampled_from(tree.names()))
    branch = awm.expand_requirements(target)
    inv = Inventory()
    rng = Random(0)
    for step in branch:
        if step.action == "collect":
            out = attempt_collect(
                tree, step.item, inv, LearnerConfig(1.0, 1.0), rng, quantity=step.quantity, tries=step.quantity
            )
            assert out.success
        else:
            assert attempt_craft(tree, step.item, inv, quantity=step.quantity).success
    assert inv.count(target) >= 1


@given(tech_trees(), st.floats(0, 0.5), st.floats(0, 0.5), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_run_soundness_under_errors(tree, insert_rate, delete_rate, seed):
    # The first name may have parents, so its edges can close cycles.
    awm = perturb_with_distractor(tree, insert_rate, delete_rate, seed, tree.names()[0])
    config = AgentConfig(
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
    assert all(state.inventory.count(i) >= 0 for i in tree.items)
    assert is_acyclic(state.awm.edges)
    for node in state.awm.frontier():
        assert node not in state.awm.verified
        assert all(
            e.parent in state.awm.verified for e in state.awm.edges if e.child == node
        )


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_run_deterministic_on_random_worlds(tree, seed):
    config = AgentConfig(c0=3, max_iterations=15, seed=seed)
    first = run_with_state(config, tree, ground_truth_awm(tree))[0]
    second = run_with_state(config, tree, ground_truth_awm(tree))[0]
    assert first == second


def reference_dream(state, config):
    """`agent.dream` as a scan of the visit counts over the candidates,
    expanding the sampled target in a rebuilt graph, which keeps no branch.
    Its pools are sets, pruned by `ancestors` and sorted here, so it does not
    rest on the order the graph keeps."""
    awm = state.awm
    frontier = set(awm.frontier())
    selectable = frontier
    if config.goal is not None:
        selectable = frontier & (awm.ancestors(config.goal) | {config.goal}) or frontier
    eligible = {n for n in selectable if state.counts.get(n, 0) <= config.c0}
    pool = eligible or frontier | set(awm.verified)
    if not pool:
        raise AwmError("degenerate belief graph: no frontier and nothing verified")
    ordered = sorted(pool)
    target = ordered[state.rng.randrange(len(ordered))]
    return DreamSample(rebuilt(awm).expand_requirements(target), not eligible)


def check_run_against_the_reference_dream(config, tree, awm):
    """The run's records equal those of a run whose dream is the reference,
    and the exhausted set is the nodes visited more than c0 times. Each run
    verifies into a graph of its own."""
    records, state = run_with_state(config, tree, rebuilt(awm))
    assert state.exhausted == {n for n, count in state.counts.items() if count > config.c0}
    with mock.patch.object(agent, "dream", reference_dream):
        assert run_with_state(config, tree, awm)[0] == records


@given(tech_trees(), st.sampled_from(["truth", "empty", "perturb"]), st.data())
@settings(max_examples=120, deadline=None)
def test_run_matches_the_reference_dream_on_random_worlds(tree, source, data):
    seed = data.draw(st.integers(0, 2**16))
    if source == "truth":
        awm = ground_truth_awm(tree)
    elif source == "empty":
        awm = empty_hypothesis(set(tree.items))
    else:
        rates = data.draw(st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)))
        awm = perturb_with_distractor(tree, *rates, seed, tree.names()[0])
    config = AgentConfig(
        goal=data.draw(st.none() | st.sampled_from(tree.names())),
        c0=data.draw(st.integers(1, 3)),
        max_iterations=30,
        learner=LearnerConfig(p0=0.5, p_max=0.95, tau=2.0),
        retry_cap=3,
        seed=seed,
    )
    check_run_against_the_reference_dream(config, tree, awm)


def test_run_matches_the_reference_dream_on_the_bundled_document():
    tree = load_tree_file(pickaxe16_path())
    sources = ["truth", "empty", "perturb:0.3,0.3", f"file:{llm_fixture_path()}"]
    for source, goal, seed in itertools.product(sources, [None, "stone_pickaxe"], range(3)):
        config = AgentConfig(goal=goal, c0=2, max_iterations=60, seed=seed)
        check_run_against_the_reference_dream(config, tree, build_hypothesis(tree, source, seed))


@given(st.floats(0, 1), st.floats(0, 1), st.floats(1e-3, 1e3), st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_learning_curve_monotone_and_bounded(p0, span, tau, far):
    p_max = p0 + (1 - p0) * span
    cfg = LearnerConfig(p0=p0, p_max=p_max, tau=tau)
    # Past k = 746 * tau, exp(-k / tau) underflows to 0.
    ks = [*range(101), int(746 * tau) + 1, far, 10**9]
    probs = [success_prob(cfg, k) for k in sorted(ks)]
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(p <= p_max + 1e-12 for p in probs)


@given(tech_trees(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_perturb_identity_at_zero_rates(tree, seed):
    truth = ground_truth_awm(tree)
    perturbed = perturb_ground_truth(tree, 0.0, 0.0, seed)
    assert perturbed.edges == truth.edges


@given(tech_trees(max_items=40), st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_perturb_stays_acyclic_with_every_insert_from_the_first_parentless_item(
    tree, insert_rate, delete_rate, seed
):
    perturbed = perturb_ground_truth(tree, insert_rate, delete_rate, seed)
    assert is_acyclic(perturbed.edges)
    first_root = min(i for i in tree.items if not tree.ground_truth_parents(i))
    assert {e.parent for e in perturbed.edges - ground_truth_awm(tree).edges} <= {first_root}
    # With that distractor no edge closes a cycle, so none is removed.
    assert perturbed.edges == perturb_with_distractor(tree, insert_rate, delete_rate, seed, first_root).edges


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


# The document pieces, the other gap characters, a comment and a string
# holding an escaped newline.
TOKEN_PIECES = [*DOCUMENT_PIECES, "\t", "\r", "# c\n", '"x\\\n']


@given(st.lists(st.sampled_from(TOKEN_PIECES) | st.text(max_size=3), max_size=40).map("".join) | st.text())
@settings(max_examples=400, deadline=None)
def test_possessive_tokenizer_finds_the_tokens_of_the_backtracking_one(text):
    assert tokens(hypotheses._TOKEN, hypotheses._WHOLE_LEXEME, text) == tokens(*BACKTRACKING, text)


def test_possessive_tokenizer_finds_the_tokens_of_the_backtracking_one_in_the_fixture():
    text = llm_fixture_path().read_text(encoding="utf-8")
    assert tokens(hypotheses._TOKEN, hypotheses._WHOLE_LEXEME, text) == tokens(*BACKTRACKING, text)


# Lexemes for generated recipe documents: the canonical ones of each field
# (DOC_*) and ones the schema check rejects (BAD_*). Names hit the aliases,
# the two workbenches and escapes; keys may be escaped too.
DOC_NAMES = [
    '"log"', '"stick"', '"planks"', '"Oak Planks"', '"wood"', '"x_plank"', '"cane"', '"crafting_table"',
    '"furnace"', '"st\\ick"', '"a\\"b"', '" "',
]
DEEP = "[" * 3000 + "]" * 3000  # past the interpreter's recursion limit
DOC_TOOLS = DOC_NAMES + ["None"] * len(DOC_NAMES)
DOC_QUANTITIES = ["1", "2", "3", '"4"', '" 5 "']
DOC_FLAGS = ["True", "False", "False", '"True"', '" False "']
BAD_ITEMS = ['""', "5", "None"]
BAD_TOOLS = ["7", "[]"]
BAD_QUANTITIES = [
    "0", "-2", "True", "False", "None", '"-1"', '"x"', "[1]", "{}",
    "9" * 5000, '"' + "9" * 5000 + '"',  # past the limit on integer digits, bare and quoted
]
BAD_FLAGS = ['"yes"', "None", "1", "[]"]
BAD_BODIES = ['"log"', "5", "None", "[]", "{}", DEEP]  # for an entry body or a recipe


ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])  # integers(0, 7) == 0 comes up far more often


def _lexeme(draw, canonical: list[str], rejected: list[str]) -> str:
    """Mostly a canonical lexeme, one time in eight a rejected one."""
    return draw(st.sampled_from(rejected if draw(ONE_IN_EIGHT) else canonical))


def _map(draw, pairs: list[tuple[str, str]]) -> str:
    """A map of the pairs in any order, sometimes with a key left out or one
    given twice. Escaping a letter keeps a key: `\\c` reads as `c`."""
    if draw(ONE_IN_EIGHT):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    pairs = draw(st.permutations(pairs))
    if pairs and draw(ONE_IN_EIGHT):
        pairs = [*pairs, draw(st.sampled_from(pairs))]
    keys = [draw(st.sampled_from([f'"{k}"', f'"{k[0]}\\{k[1:]}"'])) for k, _ in pairs]
    return "{" + ", ".join(f"{key}: {v}" for key, (_, v) in zip(keys, pairs)) + "}"


@st.composite
def recipe_documents(draw):
    """Recipe documents whose entries are mostly canonical, with broken ones
    among them, and which are sometimes cut short."""
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        elements = [
            _map(draw, [
                ("item", _lexeme(draw, DOC_NAMES, BAD_ITEMS)),
                ("quantity", _lexeme(draw, DOC_QUANTITIES, BAD_QUANTITIES)),
            ])
            for _ in range(draw(st.integers(0, 3)))
        ]
        recipe = "[" + ", ".join(elements) + (draw(st.sampled_from(["", ","])) if elements else "") + "]"
        body = _map(draw, [
            ("requires_crafting_table", _lexeme(draw, DOC_FLAGS, BAD_FLAGS)),
            ("requires_furnace", _lexeme(draw, DOC_FLAGS, BAD_FLAGS)),
            ("required_tool", _lexeme(draw, DOC_TOOLS, BAD_TOOLS)),
            ("recipe", _lexeme(draw, [recipe], BAD_BODIES)),
        ])
        entries.append(f"{draw(st.sampled_from(DOC_NAMES))}: {_lexeme(draw, [body], BAD_BODIES)}")
    text = draw(st.sampled_from(["", "item_info = "])) + "{\n" + ",\n".join(entries) + "\n}\n"
    if draw(ONE_IN_EIGHT):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _parse_outcome(parse, text: str):
    try:
        result = parse(text)
    except DocumentSyntaxError as exc:
        return str(exc)
    return result.entries, result.skips


def check_document_stages(text: str, universe: set[str]) -> None:
    """Parsing, alias normalization and graph building give what the
    references give: the same entries and skips or the same syntax error,
    the same normalized entries, and the same graph."""
    outcome = _parse_outcome(parse_recipe_dict, text)
    assert outcome == _parse_outcome(parse_reference, text)
    if isinstance(outcome, str):
        return
    entries = normalize_aliases(outcome[0])
    assert entries == normalize_aliases_reference(outcome[0])
    expected = build_hypothesized_awm_reference(entries, universe)
    assert build_hypothesized_awm(entries, universe).to_json() == expected.to_json()


DOC_UNIVERSE = {"log", "planks", "stick", "crafting_table"}


@given(recipe_documents())
@settings(max_examples=300, deadline=None)
def test_document_stages_match_the_references(text):
    check_document_stages(text, DOC_UNIVERSE)


# One entry in which one field at a time takes each canonical and each rejected lexeme.
ONE_ENTRY = (
    '{{"planks": {{"requires_crafting_table": {table}, "requires_furnace": {furnace}, '
    '"required_tool": {tool}, "recipe": [{{"item": {item}, "quantity": {quantity}}}]}}}}'
)
ONE_ENTRY_FIELDS = {
    "table": ("True", DOC_FLAGS + BAD_FLAGS),
    "furnace": ("False", DOC_FLAGS + BAD_FLAGS),
    "tool": ('"stick"', DOC_TOOLS + BAD_TOOLS),
    "item": ('"log"', DOC_NAMES + BAD_ITEMS),
    "quantity": ("1", DOC_QUANTITIES + BAD_QUANTITIES),
}


@pytest.mark.parametrize("field", ONE_ENTRY_FIELDS)
def test_document_stages_match_the_references_on_each_lexeme(field):
    canonical = {name: lexeme for name, (lexeme, _) in ONE_ENTRY_FIELDS.items()}
    for lexeme in ONE_ENTRY_FIELDS[field][1]:
        check_document_stages(ONE_ENTRY.format_map({**canonical, field: lexeme}), DOC_UNIVERSE)


def test_document_stages_match_the_references_on_the_bundled_document():
    text = llm_fixture_path().read_text(encoding="utf-8")
    check_document_stages(text, set(load_tree_file(pickaxe16_path()).items))


# Node names of mixed length, so that name order is not insertion order.
TOPO_NAMES = ["a", "b", "c", "ab", "ba", "d", "e10", "e9", "f", "zz"]


@st.composite
def pair_graphs(draw, acyclic: bool):
    """A node list and (parent, child) pairs among them, some listed twice;
    with `acyclic`, every pair runs from an earlier node of a random rank to a
    later one."""
    nodes = draw(st.lists(st.sampled_from(TOPO_NAMES), min_size=1, unique=True))
    ranked = draw(st.permutations(nodes))
    index = st.integers(0, len(nodes) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=25))
    if acyclic:
        pairs = [(min(i, j), max(i, j)) for i, j in pairs if i != j]
    pairs = [(ranked[i], ranked[j]) for i, j in pairs]
    return nodes, pairs + pairs[: draw(st.integers(0, len(pairs)))]


@given(pair_graphs(acyclic=True))
@settings(max_examples=300, deadline=None)
def test_topological_order_is_the_lexicographic_one_of_networkx(graph):
    nodes, pairs = graph
    reference = nx.DiGraph(pairs)
    reference.add_nodes_from(nodes)
    assert topological_order(nodes, pairs) == list(nx.lexicographical_topological_sort(reference))


@given(pair_graphs(acyclic=False))
@settings(max_examples=300, deadline=None)
def test_topological_order_leaves_out_every_node_reachable_from_a_cycle(graph):
    nodes, pairs = graph
    reference = nx.DiGraph(pairs)
    reference.add_nodes_from(nodes)
    on_cycle = {n for part in nx.strongly_connected_components(reference) if len(part) > 1 for n in part}
    on_cycle |= set(nx.nodes_with_selfloops(reference))
    left_out = on_cycle.union(*(nx.descendants(reference, n) for n in on_cycle))
    order = topological_order(nodes, pairs)
    assert set(order) == set(nodes) - left_out
    assert order == list(nx.lexicographical_topological_sort(reference.subgraph(order)))
