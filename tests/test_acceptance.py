"""Acceptance gate: one test per shipped criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is tuned at runtime.
"""
import statistics
import time
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from dreamcraft.agent import AgentConfig, run_with_state
from dreamcraft.awm import AwmEdge
from dreamcraft.datafiles import llm_fixture_path, pickaxe16_path
from dreamcraft.harness import ExperimentSpec, run_experiment, run_robustness, run_task
from dreamcraft.hypotheses import (
    ParsedEntry,
    build_hypothesized_awm,
    empty_hypothesis,
    ground_truth_awm,
    normalize_aliases,
    parse_recipe_dict,
    score_hypothesis,
)
from dreamcraft.tech_tree import (
    Inventory,
    ItemDef,
    LearnerConfig,
    RecipeEntry,
    attempt_craft,
    load_tree,
    load_tree_file,
    make_tree,
)
from support import is_acyclic, perturb_with_distractor

SEEDS10 = tuple(range(10))


@pytest.fixture(scope="module")
def tree16():
    return load_tree_file(pickaxe16_path())


@pytest.fixture(scope="module")
def open_ended_runs(tree16):
    """Ten guided and ten unguided full open-ended runs, shared by criteria 2-3."""

    def batch(source):
        out = []
        for seed in SEEDS10:
            awm = (
                ground_truth_awm(tree16)
                if source == "truth"
                else empty_hypothesis(set(tree16.items))
            )
            config = AgentConfig(seed=seed, max_iterations=900)
            out.append(run_with_state(config, tree16, awm)[0])
        return out

    return batch("truth"), batch("empty")


def test_criterion_1_guidance_speedup(tree16):
    started = time.monotonic()
    spec = ExperimentSpec(
        experiment="task",
        tree_path=str(pickaxe16_path()),
        hypothesis="truth",
        goal="stone_pickaxe",
        seeds=SEEDS10,
        max_iterations=800,
    )
    results = run_task(spec, tree16)
    elapsed = time.monotonic() - started

    guided = [r for r in results if r.hypothesis == "primary"]
    unguided = [r for r in results if r.hypothesis == "empty"]
    assert all(r.success for r in guided)
    assert all(r.success for r in unguided)
    mean_guided = statistics.mean(r.env_steps_to_goal for r in guided)
    mean_unguided = statistics.mean(r.env_steps_to_goal for r in unguided)
    ratio = mean_unguided / mean_guided
    assert ratio >= 2.0, ratio

    policies = {(r.hypothesis, r.seed): r.policies_created for r in results}
    for seed in SEEDS10:
        assert policies[("primary", seed)] < policies[("empty", seed)], seed
    assert elapsed < 60.0, elapsed
    print(
        f"\nACCEPTANCE 1 PASS: step ratio {ratio:.1f}x (>= 2.0), "
        f"policies {guided[0].policies_created} < {unguided[0].policies_created} on every seed, "
        f"{elapsed:.1f}s (< 60s)"
    )


def test_criterion_2_open_ended_dominance(open_ended_runs):
    guided, unguided = open_ended_runs

    def glass_iteration(records):
        return next(r.iteration for r in records if r.newly_verified == "glass")

    mean_guided = statistics.mean(glass_iteration(r) for r in guided)
    mean_unguided = statistics.mean(glass_iteration(r) for r in unguided)
    assert mean_guided <= 0.6 * mean_unguided, (mean_guided, mean_unguided)

    horizon = max(len(r) for r in guided + unguided)

    def mean_curve(batch):
        padded = []
        for records in batch:
            curve = [r.verified_count for r in records]
            curve += [curve[-1]] * (horizon - len(curve))
            padded.append(curve)
        return [statistics.mean(c[i] for c in padded) for i in range(horizon)]

    g_curve, u_curve = mean_curve(guided), mean_curve(unguided)
    dominated = sum(1 for a, b in zip(g_curve, u_curve) if a >= b)
    assert dominated / horizon >= 0.9, dominated / horizon
    print(
        f"\nACCEPTANCE 2 PASS: glass at {mean_guided:.1f} vs {mean_unguided:.1f} iterations "
        f"(ratio {mean_guided / mean_unguided:.2f} <= 0.6), dominance {dominated}/{horizon}"
    )


def test_criterion_3_frontier_pruning(open_ended_runs):
    guided, _ = open_ended_runs
    worst = 0.0
    for records in guided:
        assert all(r.frontier_size <= r.graph_size for r in records)
        second_half = records[len(records) // 2 :]
        ratio = statistics.mean(r.frontier_size / r.graph_size for r in second_half)
        worst = max(worst, ratio)
        assert ratio < 0.5, ratio
    print(f"\nACCEPTANCE 3 PASS: frontier/graph <= 1 everywhere, worst late-run mean ratio {worst:.3f} (< 0.5)")


def test_criterion_4_robustness(tree16):
    spec = ExperimentSpec(
        experiment="robustness",
        tree_path=str(pickaxe16_path()),
        goal="stone_pickaxe",
        seeds=(0, 1, 2),
        insert_rates=(0.0, 0.2),
        delete_rates=(0.0, 0.2),
        max_iterations=900,
    )
    results = run_robustness(spec, tree16)
    groups = {}
    for r in results:
        groups.setdefault(r.hypothesis, []).append(r.env_steps_to_goal)

    noisy = statistics.mean(groups["perturb:0.2,0.2"])
    unguided = statistics.mean(groups["empty"])
    assert noisy < unguided, (noisy, unguided)

    clean, truth = groups["perturb:0,0"], groups["truth"]
    assert max(min(clean), min(truth)) <= min(max(clean), max(truth))
    print(
        f"\nACCEPTANCE 4 PASS: corrupted-graph mean {noisy:.0f} steps < unguided {unguided:.0f}; "
        f"zero-rate cell overlaps ground truth (identical seeds give {clean == truth})"
    )


# --- criterion 5: generated-worlds soundness suite (1000 cases) -------------


@st.composite
def random_worlds(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    names = [f"item{i:02d}" for i in range(n)]
    if n >= 3 and draw(st.booleans()):
        names[1] = "crafting_table"
    if n >= 4 and draw(st.booleans()):
        names[2] = "furnace"
    defs = [ItemDef(names[0], collectable=True)]
    for i in range(1, n):
        name, earlier = names[i], names[:i]
        if draw(st.booleans()):
            tool = earlier[draw(st.integers(0, i - 1))] if draw(st.integers(0, 3)) == 0 else None
            defs.append(ItemDef(name, collectable=True, required_tool=tool))
        else:
            k = draw(st.integers(1, min(3, i)))
            picks = draw(st.lists(st.sampled_from(earlier), min_size=k, max_size=k, unique=True))
            defs.append(
                ItemDef(
                    name,
                    collectable=False,
                    requires_crafting_table="crafting_table" in earlier
                    and name != "crafting_table"
                    and draw(st.integers(0, 3)) == 0,
                    requires_furnace="furnace" in earlier
                    and name != "furnace"
                    and draw(st.integers(0, 3)) == 0,
                    recipe=tuple(RecipeEntry(p, draw(st.integers(1, 3))) for p in sorted(picks)),
                    craft_yield=draw(st.integers(1, 3)),
                )
            )
    return make_tree(defs)


@given(
    random_worlds(),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.integers(0, 2**20),
)
@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def _verification_soundness_case(tree, insert_rate, delete_rate, seed):
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

    # Every verified node carries exactly the ground-truth parents.
    for item in state.awm.verified:
        got = {(e.parent, e.kind, e.quantity) for e in state.awm.parents_of(item)}
        assert got == tree.ground_truth_parents(item), item

    # Inventories can never go negative (the container enforces it; check the
    # final snapshot explicitly as well).
    assert all(state.inventory.count(i) >= 0 for i in tree.items)

    # Tools and workbenches survive a successful craft untouched.
    craftables = tree.craftables()
    if craftables:
        item = craftables[-1]
        d = tree.definition(item)
        inv = Inventory({e.item: e.quantity for e in d.recipe})
        if d.requires_crafting_table:
            inv.add("crafting_table")
        if d.requires_furnace:
            inv.add("furnace")
        before = {bench: inv.count(bench) for bench in ("crafting_table", "furnace")}
        assert attempt_craft(tree, item, inv).success
        for bench in before:
            if bench != item and bench not in {e.item for e in d.recipe}:
                assert inv.count(bench) == before[bench]


def test_criterion_5_verification_soundness():
    _verification_soundness_case()  # raises on the first failing case
    print("\nACCEPTANCE 5 PASS: 1000 generated (tree, error-spec, seed) cases "
          "held verified-edge equality, non-negative inventories, tool/workbench conservation")


# --- criterion 6: oracle equivalence over small trees ------------------------


def oracle_iterations(tree, goal):
    parents = {}
    todo = [goal]
    while todo:
        item = todo.pop()
        if item in parents:
            continue
        parents[item] = {p for p, _, _ in tree.ground_truth_parents(item)}
        todo.extend(parents[item])
    verified, iterations = set(), 0
    while goal not in verified:
        ready = next(i for i in sorted(parents) if i not in verified and parents[i] <= verified)
        verified.add(ready)
        iterations += 1
    return iterations


def small_random_tree(seed):
    rng = Random(seed)
    n = rng.randint(2, 8)
    names = [f"it{i}" for i in range(n)]
    defs = [ItemDef(names[0], collectable=True)]
    for i in range(1, n):
        if rng.random() < 0.4:
            tool = rng.choice(names[:i]) if rng.random() < 0.25 else None
            defs.append(ItemDef(names[i], collectable=True, required_tool=tool))
        else:
            k = rng.randint(1, min(3, i))
            picks = rng.sample(names[:i], k)
            defs.append(
                ItemDef(
                    names[i],
                    collectable=False,
                    recipe=tuple(RecipeEntry(p, rng.randint(1, 3)) for p in sorted(picks)),
                    craft_yield=rng.randint(1, 3),
                )
            )
    return make_tree(defs)


def test_criterion_6_oracle_equivalence():
    checked = 0
    for tree_seed in range(25):
        tree = small_random_tree(tree_seed)
        for goal in tree.names():
            config = AgentConfig(
                goal=goal,
                seed=tree_seed,
                max_iterations=100,
                learner=LearnerConfig(p0=1.0, p_max=1.0),
                retry_cap=10_000,
            )
            records = run_with_state(config, tree, ground_truth_awm(tree))[0]
            assert len(records) == oracle_iterations(tree, goal), (tree_seed, goal)
            checked += 1
    print(f"\nACCEPTANCE 6 PASS: run() == brute-force walker on {checked} (tree, goal) pairs, exactly")


# --- criterion 7: parser and metric correctness ------------------------------


def test_criterion_7_parser_and_metrics(tree16):
    result = parse_recipe_dict(llm_fixture_path().read_text(encoding="utf-8"))
    by_name = {e.item: e for e in result.entries}
    assert dict(by_name["diamond_pickaxe"].recipe) == {"stick": 2, "diamond": 3}
    assert by_name["diamond"].required_tool == "iron_pickaxe"

    entries = normalize_aliases(result.entries)
    awm = build_hypothesized_awm(entries, set(tree16.items))
    assert is_acyclic(awm.edges)
    assert AwmEdge("crafting_table", "planks", "workbench", 1) not in awm.edges
    assert [(e.parent, e.quantity) for e in awm.parents_of("crafting_table") if e.kind == "ingredient"] == [("planks", 4)]

    identity = score_hypothesis(ground_truth_awm(tree16), tree16)
    assert identity.collectable_vs_craftable_acc == 100.0
    assert identity.workbench_acc == 100.0
    assert identity.recipe_items_acc == 100.0
    assert identity.recipe_exact_acc == 100.0
    assert identity.pct_items_inserted_deps == 0.0
    assert identity.pct_items_missing_deps == 0.0
    assert (identity.qty_abs_error, identity.qty_avg_error, identity.qty_std) == (0.0, 0.0, 0.0)

    toy = load_tree(
        '{"wood": {"collectable": true, "recipe": []},'
        ' "stone": {"collectable": true, "recipe": []},'
        ' "plank": {"collectable": false, "recipe": [{"item": "wood", "quantity": 2}]},'
        ' "box": {"collectable": false, "recipe": ['
        '{"item": "plank", "quantity": 3}, {"item": "stone", "quantity": 1}]}}'
    )
    predicted = build_hypothesized_awm(
        [
            ParsedEntry(item="wood", recipe=(("stone", 1),)),
            ParsedEntry(item="stone"),
            ParsedEntry(item="plank", requires_crafting_table=True, recipe=(("wood", 3),)),
            ParsedEntry(item="box", recipe=(("plank", 3),)),
        ],
        set(toy.items),
    )
    report = score_hypothesis(predicted, toy)
    assert report.collectable_vs_craftable_acc == 75.0
    assert report.workbench_acc == 75.0
    assert report.recipe_items_acc == 50.0
    assert report.recipe_exact_acc == 25.0
    assert report.pct_items_inserted_deps == 50.0
    assert report.pct_items_missing_deps == 25.0
    assert (report.qty_abs_error, report.qty_avg_error, report.qty_std) == (0.5, 0.5, 0.5)
    print("\nACCEPTANCE 7 PASS: fixture parses (quoted quantities, skip-and-report), "
          "cycle removed, identity scores 100/0, discrepancy fixture matches hand computation")


def test_criterion_8_determinism(tmp_path):
    spec = ExperimentSpec(
        experiment="task",
        tree_path=str(pickaxe16_path()),
        hypothesis="perturb:0.2,0.2",
        goal="stone_pickaxe",
        seeds=(0, 1, 2, 3),
        max_iterations=800,
    )
    first = run_experiment(spec, tmp_path / "a")
    second = run_experiment(spec, tmp_path / "b")
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes(), left.name
    print("\nACCEPTANCE 8 PASS: identical manifests reproduce byte-identical CSVs")
