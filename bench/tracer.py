"""Outside-in tracer for the dreamcraft library.

The library is not edited. Each traced function is replaced, for the
duration of `Tracer.installed()`, by a wrapper at every place it is looked
up: `Awm` methods on the class, and module-level functions under every name
any `dreamcraft` module binds them to (agent, policy and harness import
functions by name, so patching only the defining module would miss calls).

Every call becomes a span (name, parent span, start, end) kept in compact
in-memory arrays. A span's self time is its duration minus the durations of
its direct children. Counters that need to look at arguments or results
(edge corrections, success flags, parser skips) run outside the traced
function's timed interval, inside a span of their own named `tracer`, so
they inflate no layer's self time.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from dreamcraft import agent, awm, harness, hypotheses, policy, tech_tree

# Metric name -> (defining module, attribute) of every traced function.
# `remove_cycles` is defined in awm but is part of hypothesis building, and
# `run_with_state` is defined in agent but is the harness's trial call.
TRACED = {
    "tech_tree.attempt_collect": (tech_tree, "attempt_collect"),
    "tech_tree.attempt_craft": (tech_tree, "attempt_craft"),
    "policy.acquire": (policy, "acquire"),
    "policy.execute_subgoal": (policy, "execute_subgoal"),
    "awm.frontier": (awm.Awm, "frontier"),
    "awm.ancestors": (awm.Awm, "ancestors"),
    "awm.prune_to_goal": (awm.Awm, "prune_to_goal"),
    "awm.expand_requirements": (awm.Awm, "expand_requirements"),
    "awm.verify_node": (awm.Awm, "verify_node"),
    "awm.sample_branch": (awm, "sample_branch"),
    "agent.dream": (agent, "dream"),
    "agent.wake": (agent, "wake"),
    "hypotheses.parse_recipe_dict": (hypotheses, "parse_recipe_dict"),
    "hypotheses.normalize_aliases": (hypotheses, "normalize_aliases"),
    "hypotheses.build_hypothesized_awm": (hypotheses, "build_hypothesized_awm"),
    "hypotheses.remove_cycles": (awm, "remove_cycles"),
    "hypotheses.perturb_ground_truth": (hypotheses, "perturb_ground_truth"),
    "hypotheses.ground_truth_awm": (hypotheses, "ground_truth_awm"),
    "hypotheses.empty_hypothesis": (hypotheses, "empty_hypothesis"),
    "harness.run_experiment": (harness, "run_experiment"),
    "harness.build_hypothesis": (harness, "build_hypothesis"),
    "harness.run_with_state": (agent, "run_with_state"),
    "harness.emit_results": (harness, "emit_results"),
}
LAYERS = ("tech_tree", "policy", "awm", "agent", "hypotheses", "harness")
PERCENTILE_SPANS = ("awm.frontier", "agent.dream", "agent.wake")
TRACER_SPAN = "tracer"


def _incoming(graph: awm.Awm, item: str) -> set:
    return {e for e in graph.edges if e.child == item}


class Tracer:
    def __init__(self):
        self.span_names: list[str] = list(TRACED) + [TRACER_SPAN]
        self._name_id = {name: i for i, name in enumerate(self.span_names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.unsound_nodes: list[str] = []
        self._correcting = False  # whether the running trial started from a hypothesis

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, metric: str, fn, before=None, after=None):
        span_id = self._name_id[metric]
        tracer_id = self._name_id[TRACER_SPAN]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = None
            if before is not None:
                index = self._open(tracer_id)
                pre = before(*args, **kwargs)
                self._close(index)
            index = self._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                index = self._open(tracer_id)
                after(result, pre, *args, **kwargs)
                self._close(index)
            return result

        return wrapper

    # -- counters taken outside the timed interval ----------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def source_before(_tree, source, *_args, **_kwargs):
            # Every trial builds its hypothesis just before it runs. A trial
            # from `empty` has no hypothesised edges: what it verifies is
            # learnt from nothing, not a correction.
            self._correcting = source != "empty"

        def verify_before(graph, item, *_args, **_kwargs):
            return _incoming(graph, item) if self._correcting else None

        def verify_after(_result, before, graph, item, *_args, **_kwargs):
            if before is None:
                return
            after = _incoming(graph, item)
            counts["awm.verify_node.edges_removed"] += len(before - after)
            counts["awm.verify_node.edges_added"] += len(after - before)

        def count_flag(key, flag):
            def after(result, _pre, *_args, **_kwargs):
                counts[key] += bool(flag(result))

            return after

        def skipped(result, _pre, *_args, **_kwargs):
            counts["hypotheses.skipped_entries"] += len(result.skipped)

        def soundness(result, _pre, _config, tree, *_args, **_kwargs):
            state = result[1]
            for node in sorted(state.awm.verified):
                edges = {(e.parent, e.kind, e.quantity) for e in _incoming(state.awm, node)}
                if edges != tree.ground_truth_parents(node):
                    self.unsound_nodes.append(node)

        return {
            "harness.build_hypothesis": (source_before, None),
            "awm.verify_node": (verify_before, verify_after),
            "agent.dream": (None, count_flag("agent.fallback", lambda r: r.fallback)),
            "agent.wake": (None, count_flag("agent.verified", lambda r: r.newly_verified is not None)),
            "policy.acquire": (None, count_flag("policy.acquire.success", lambda r: r.success)),
            "tech_tree.attempt_collect": (None, count_flag("tech_tree.attempt_collect.success", lambda r: r.success)),
            "tech_tree.attempt_craft": (None, count_flag("tech_tree.attempt_craft.success", lambda r: r.success)),
            "hypotheses.parse_recipe_dict": (None, skipped),
            "harness.run_with_state": (None, soundness),
        }

    @contextmanager
    def installed(self):
        """Patch every traced function where it is looked up; restore on exit."""
        modules = [m for name, m in sys.modules.items() if name == "dreamcraft" or name.startswith("dreamcraft.")]
        hooks = self._hooks()
        undo = []
        try:
            for metric, (owner, attr) in TRACED.items():
                original = owner.__dict__[attr]
                wrapper = self._wrap(metric, original, *hooks.get(metric, (None, None)))
                if isinstance(owner, type):
                    places = [owner]
                else:
                    places = [m for m in modules if m.__dict__.get(attr) is original]
                for place in places:
                    undo.append((place, attr, original))
                    setattr(place, attr, wrapper)
            yield self
        finally:
            for place, attr, original in reversed(undo):
                setattr(place, attr, original)

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def metrics(self) -> dict[str, float]:
        """Calls, self time, percentiles and ratios, keyed by metric name."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        durations: dict[str, list[float]] = {name: [] for name in PERCENTILE_SPANS}
        acquire_id = self._name_id["policy.acquire"]
        tries = 0
        for index, name_id in enumerate(self.name):
            name = self.span_names[name_id]
            calls[name] += 1
            self_s[name] += own[index]
            if name in durations:
                durations[name].append(self.end[index] - self.start[index])
            parent = self.parent[index]
            if name == "policy.execute_subgoal" and parent >= 0 and self.name[parent] == acquire_id:
                tries += 1

        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, values in durations.items():
            values.sort()
            out[f"{name}.ms_p50"] = 1000 * _nearest_rank(values, 0.50)
            out[f"{name}.ms_p99"] = 1000 * _nearest_rank(values, 0.99)
        for key in ("awm.verify_node.edges_removed", "awm.verify_node.edges_added", "hypotheses.skipped_entries"):
            out[key] = self.counts[key]
        iterations = calls["agent.wake"]
        out["agent.fallback_ratio"] = _ratio(self.counts["agent.fallback"], iterations)
        out["agent.verify_ratio"] = _ratio(self.counts["agent.verified"], iterations)
        for name in ("policy.acquire", "tech_tree.attempt_collect", "tech_tree.attempt_craft"):
            out[f"{name}.success_ratio"] = _ratio(self.counts[f"{name}.success"], calls[name])
        out["policy.acquire.tries_per_call"] = _ratio(tries, calls["policy.acquire"])
        return out


def self_time_shares(metrics: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Each traced function's and each layer's share of the summed self time."""
    self_s = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(self_s.values())
    functions = {name: _ratio(v, total) for name, v in self_s.items()}
    layers = {layer: sum(v for k, v in functions.items() if k.startswith(layer + ".")) for layer in LAYERS}
    return functions, layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if ".ms_" in metric:
        return "ms"
    if metric.endswith("_ratio"):
        return "fraction"
    if metric.endswith("tries_per_call"):
        return "tries/call"
    return "count"
