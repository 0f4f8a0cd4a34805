import pytest

from dreamcraft import agent
from dreamcraft.agent import (
    AgentConfig,
    AgentState,
    dream,
    run_with_state,
    visit,
    wake,
)
from dreamcraft.awm import Awm, AwmEdge, AwmError, NodeBelief
from dreamcraft.datafiles import llm_fixture_path
from dreamcraft.harness import build_hypothesis
from dreamcraft.hypotheses import empty_hypothesis, ground_truth_awm
from dreamcraft.tech_tree import COLLECT_STEPS, ItemDef, LearnerConfig, RecipeEntry, make_tree
from support import beliefs_of


def certain_config(**kw) -> AgentConfig:
    kw.setdefault("learner", LearnerConfig(p0=1.0, p_max=1.0))
    kw.setdefault("retry_cap", 1000)
    return AgentConfig(**kw)


def oracle_iterations_to_goal(tree, goal):
    """Independent exhaustive walker: verify one ready node on the goal's
    dependency closure per step, straight from the item definitions."""
    parents = {}
    todo = [goal]
    while todo:
        item = todo.pop()
        if item in parents:
            continue
        parents[item] = {p for p, _, _ in tree.ground_truth_parents(item)}
        todo.extend(parents[item])
    verified = set()
    steps = 0
    while goal not in verified:
        ready = next(i for i in sorted(parents) if i not in verified and parents[i] <= verified)
        verified.add(ready)
        steps += 1
    return steps


def test_goal_run_matches_oracle_on_fixture(tree):
    awm = ground_truth_awm(tree)
    config = certain_config(goal="stone_pickaxe", seed=4, max_iterations=60)
    records = run_with_state(config, tree, awm)[0]
    assert len(records) == 7 == oracle_iterations_to_goal(tree, "stone_pickaxe")
    assert records[-1].newly_verified == "stone_pickaxe"
    assert [r.verified_count for r in records] == list(range(1, 8))


def test_goal_run_matches_oracle_for_every_fixture_goal(tree):
    for goal in tree.names():
        config = certain_config(goal=goal, seed=1, max_iterations=80)
        records = run_with_state(config, tree, ground_truth_awm(tree))[0]
        assert len(records) == oracle_iterations_to_goal(tree, goal), goal


def small_trees():
    """Handcrafted worlds of at most 8 items covering chains, diamonds, tools,
    and workbench gates."""
    chain = make_tree(
        [
            ItemDef("a", True),
            ItemDef("b", False, recipe=(RecipeEntry("a", 2),)),
            ItemDef("c", False, recipe=(RecipeEntry("b", 3),), craft_yield=2),
            ItemDef("d", False, recipe=(RecipeEntry("c", 1),)),
        ]
    )
    diamond = make_tree(
        [
            ItemDef("ore", True),
            ItemDef("wood", True),
            ItemDef("left", False, recipe=(RecipeEntry("ore", 1),)),
            ItemDef("right", False, recipe=(RecipeEntry("wood", 2),)),
            ItemDef("top", False, recipe=(RecipeEntry("left", 1), RecipeEntry("right", 1))),
        ]
    )
    gated = make_tree(
        [
            ItemDef("wood", True),
            ItemDef("pick", False, recipe=(RecipeEntry("wood", 3),)),
            ItemDef("rock", True, required_tool="pick"),
            ItemDef("crafting_table", False, recipe=(RecipeEntry("wood", 4),)),
            ItemDef(
                "statue", False, requires_crafting_table=True, recipe=(RecipeEntry("rock", 2),)
            ),
        ]
    )
    single = make_tree([ItemDef("pebble", True)])
    return [chain, diamond, gated, single]


def test_oracle_equivalence_on_small_trees():
    for tree in small_trees():
        for goal in tree.names():
            config = certain_config(goal=goal, seed=0, max_iterations=100)
            records = run_with_state(config, tree, ground_truth_awm(tree))[0]
            assert len(records) == oracle_iterations_to_goal(tree, goal), (tree.names(), goal)


def test_run_deterministic(tree):
    config = AgentConfig(goal="glass", seed=123, max_iterations=300)
    first = run_with_state(config, tree, ground_truth_awm(tree))[0]
    second = run_with_state(config, tree, ground_truth_awm(tree))[0]
    assert first == second


def test_a_run_verifies_into_the_graph_it_is_given(tree):
    awm = ground_truth_awm(tree)
    _, state = run_with_state(AgentConfig(goal="planks", max_iterations=50), tree, awm)
    assert state.awm is awm
    assert "planks" in awm.verified


def test_run_zero_iterations(tree):
    config = AgentConfig(max_iterations=0)
    assert run_with_state(config, tree, ground_truth_awm(tree))[0] == []


def test_run_rejects_missing_nodes(tree):
    with pytest.raises(ValueError):
        run_with_state(AgentConfig(), tree, empty_hypothesis({"log"}))


def test_config_validation():
    with pytest.raises(ValueError, match="c0"):
        AgentConfig(c0=0)
    with pytest.raises(ValueError, match="max_iterations"):
        AgentConfig(max_iterations=-1)
    with pytest.raises(ValueError, match="retry_cap"):
        AgentConfig(retry_cap=0)


def test_dream_prunes_to_goal_path(tree):
    awm = ground_truth_awm(tree)
    config = certain_config(goal="stone_pickaxe", seed=0, max_iterations=10)
    state = AgentState.create(tree, awm, config)
    sampled = dream(state, config)
    assert sampled.branch[-1].item == "log"
    assert not sampled.fallback


def test_dream_fallback_after_c0(tree):
    awm = ground_truth_awm(tree)
    config = certain_config(goal="stone_pickaxe", c0=2, seed=0, max_iterations=10)
    state = AgentState.create(tree, awm, config)
    for _ in range(config.c0):  # pruned frontier is exactly {log}
        visit(state, config, "log")
    assert not dream(state, config).fallback  # c0 visits still leave it eligible
    visit(state, config, "log")
    assert state.exhausted == {"log"}
    sampled = dream(state, config)
    assert sampled.fallback
    assert sampled.branch[-1].item in awm.frontier() | awm.verified


def test_dream_on_a_fully_verified_graph_samples_a_verified_fallback(tree):
    awm = ground_truth_awm(tree)
    for item in awm.nodes - awm.verified:
        awm.verify_node(item, tree.ground_truth_parents(item))
    config = AgentConfig()
    sampled = dream(AgentState.create(tree, awm, config), config)
    assert sampled.fallback
    assert sampled.branch[-1].item in awm.verified


def test_run_rejects_a_goal_outside_the_tree_before_any_iteration(tree, monkeypatch):
    # The bundled document names items the tree lacks, such as diamond; its
    # graph holds them as hypothesis-only nodes that no run can verify.
    awm = build_hypothesis(tree, f"file:{llm_fixture_path()}", seed=0)
    assert "diamond" in awm.nodes and "diamond" not in tree.items
    monkeypatch.setattr(agent, "dream", lambda *_: pytest.fail("dreamed with a goal outside the tree"))
    with pytest.raises(ValueError, match="goal 'diamond' is not a tree item"):
        run_with_state(AgentConfig(goal="diamond", max_iterations=5), tree, awm)


def test_dream_degenerate_graph_raises(tree):
    # A node gated behind a parent that is not even in the graph can never be
    # a frontier node; with nothing verified there is nowhere to sample from.
    # The sampler's check is the one that fires, so it is a ValueError.
    awm = Awm(nodes={"b"}, edges={AwmEdge("ghost", "b", "ingredient", 1)})
    config = AgentConfig()
    state = AgentState.create(tree, awm, config)
    with pytest.raises(AwmError, match="degenerate belief graph: no frontier and nothing verified"):
        dream(state, config)


def test_wake_single_collect_verifies_parentless(tree):
    awm = ground_truth_awm(tree)
    config = certain_config(seed=0, max_iterations=10)
    state = AgentState.create(tree, awm, config)
    record = wake(state, config, awm.expand_requirements("log"))
    assert record.success and record.newly_verified == "log"
    assert awm.parents_of("log") == []
    assert state.counts["log"] == 1


def test_wake_prefix_failure_charges_steps_and_counts_target(tree):
    awm = ground_truth_awm(tree)
    config = AgentConfig(
        seed=0,
        max_iterations=10,
        learner=LearnerConfig(p0=0.0, p_max=0.0),
        retry_cap=3,
    )
    state = AgentState.create(tree, awm, config)
    record = wake(state, config, awm.expand_requirements("planks"))
    assert not record.success
    assert record.newly_verified is None
    assert state.awm.verified == set()
    assert record.env_steps == 3000  # three hopeless collect attempts
    assert state.counts["planks"] == 1  # target counted despite never being reached
    assert state.counts["log"] == 1


def test_a_branch_makes_more_crafts_than_the_retry_cap():
    # A fence needs twelve sticks, each one craft: with the default retry cap
    # of 10 every craft is still made in the fence's own branch, so the goal
    # takes one iteration per item and no fallback.
    tree = make_tree([
        ItemDef("log", collectable=True),
        ItemDef("planks", collectable=False, recipe=(RecipeEntry("log", 1),), craft_yield=4),
        ItemDef("stick", collectable=False, recipe=(RecipeEntry("planks", 1),)),
        ItemDef("fence", collectable=False, recipe=(RecipeEntry("stick", 12),)),
    ])
    config = certain_config(goal="fence", retry_cap=10)
    records, state = run_with_state(config, tree, ground_truth_awm(tree))
    assert "fence" in state.awm.verified
    assert [r.target for r in records] == ["log", "planks", "stick", "fence"]
    assert not any(r.fallback for r in records)
    assert state.total_env_steps == 6 * COLLECT_STEPS  # 1 + 1 + 1 + 3 logs


def test_glass_error_corrected_via_fallback(tree):
    # The flagship correction: glass believed collectable and parentless.
    truth = ground_truth_awm(tree)
    awm = Awm(
        truth.nodes,
        {e for e in truth.edges if e.child != "glass"},
        {**beliefs_of(truth), "glass": NodeBelief(collectable=True)},
    )
    config = certain_config(c0=4, seed=8, max_iterations=400)
    records, state = run_with_state(config, tree, awm)
    assert "glass" in state.awm.verified
    assert {(e.parent, e.kind) for e in state.awm.parents_of("glass")} == {
        ("sand", "ingredient"),
        ("furnace", "workbench"),
    }
    glass_iters = [r for r in records if r.target == "glass" and not r.fallback]
    assert len(glass_iters) >= config.c0  # it kept failing until the cap widened sampling


def test_at_most_one_verification_per_iteration(tree):
    config = AgentConfig(seed=5, c0=3, max_iterations=500)
    records = run_with_state(config, tree, empty_hypothesis(set(tree.items)))[0]
    for before, after in zip(records, records[1:]):
        assert after.verified_count - before.verified_count in (0, 1)
    assert all((r.newly_verified is not None) <= r.success for r in records)


def test_guided_policies_stay_on_goal_path(tree):
    awm = ground_truth_awm(tree)
    config = AgentConfig(goal="stone_pickaxe", seed=2, max_iterations=300)
    records, state = run_with_state(config, tree, awm)
    assert not any(r.fallback for r in records)
    assert set(state.attempts) == {"log", "cobblestone"}


def test_policy_scope_before_first_fallback(tree):
    # Break the believed graph so the run must eventually widen; until then,
    # every learned policy lies on the believed goal path.
    def broken():
        truth = ground_truth_awm(tree)
        assert truth.parents_of("cobblestone") == [AwmEdge("wooden_pickaxe", "cobblestone", "tool", 1)]
        return Awm(truth.nodes, truth.edges - set(truth.parents_of("cobblestone")), beliefs_of(truth))

    config = AgentConfig(goal="stone_pickaxe", c0=4, seed=6, max_iterations=400)
    records, _ = run_with_state(config, tree, broken())
    fallback_iters = [r.iteration for r in records if r.fallback]
    assert fallback_iters, "scenario should force a fallback"
    cutoff = fallback_iters[0] - 1

    truncated = AgentConfig( goal="stone_pickaxe", c0=4, seed=6, max_iterations=cutoff
    )
    _, state = run_with_state(truncated, tree, broken())
    goal_path = broken().ancestors("stone_pickaxe") | {"stone_pickaxe"}
    assert set(state.attempts) <= goal_path


def test_verified_edges_always_ground_truth(tree):
    config = AgentConfig(seed=7, c0=4, max_iterations=600)
    _, state = run_with_state(config, tree, empty_hypothesis(set(tree.items)))
    assert len(state.awm.verified) == 16
    for item in state.awm.verified:
        got = {(e.parent, e.kind, e.quantity) for e in state.awm.parents_of(item)}
        assert got == tree.ground_truth_parents(item), item


def test_step_accounting_conserved(tree):
    config = AgentConfig(seed=9, c0=4, max_iterations=200)
    records, state = run_with_state(config, tree, empty_hypothesis(set(tree.items)))
    assert state.total_env_steps == sum(r.env_steps for r in records)
    assert state.total_env_steps == sum(state.attempts.values()) * COLLECT_STEPS
    cumulative = [r.cumulative_env_steps for r in records]
    assert cumulative == sorted(cumulative)


def test_frontier_column_bounds(tree):
    config = AgentConfig(seed=1, max_iterations=200)
    records = run_with_state(config, tree, ground_truth_awm(tree))[0]
    for r in records:
        assert r.frontier_size <= r.graph_size
        assert r.verified_count <= r.graph_size
