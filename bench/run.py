#!/usr/bin/env python3
"""dreamcraft benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then repeats the workload's fixed
list of `harness.run_experiment` calls until S seconds have been measured.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
MIN_REPETITIONS = 2
REFERENCE_LOOP = 60_000  # iterations of the host-speed reference
# Host times are reported in units of the reference loop's time, times this
# constant: about the loop's fastest time on the machine behind the README's
# numbers.
REFERENCE_NOMINAL_S = 0.004


def _import_library() -> None:
    """Import dreamcraft from this checkout's src/ and nowhere else."""
    if not (SRC / "dreamcraft" / "__init__.py").is_file():
        sys.exit(f"bench: no dreamcraft sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import dreamcraft

    if Path(dreamcraft.__file__).resolve().parent != SRC / "dreamcraft":
        sys.exit(f"bench: imported dreamcraft from {dreamcraft.__file__}, not from {SRC}")


def _build(workload: str, seed: int):
    """Generate and write the workload's inputs; return its calls and the
    directory they emit into."""
    from workloads import WORKLOADS

    work = WORK / workload / f"seed{seed}"
    return WORKLOADS[workload](seed, work / "inputs"), work / "out"


def _reference_s() -> float:
    """The host's current speed: the fastest of three timings of a fixed
    pure-Python loop. Other tenants of a shared host slow this loop and the
    library alike."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _scaled(seconds: float, reference: float) -> float:
    """A time taken while the reference ran in `reference` seconds, in
    reference-loop units times REFERENCE_NOMINAL_S. It depends neither on how
    fast the rest of the run was nor on how many repetitions it made."""
    return seconds * REFERENCE_NOMINAL_S / reference


@dataclass
class Measurement:
    """Call times with the reference time taken around each call (per
    repetition, per call), digests and traced results."""

    untraced: list[list[tuple[float, float]]] = field(default_factory=list)
    traced: list[list[tuple[float, float]]] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    traced_digests: set[str] = field(default_factory=set)
    layer_metrics: list[dict[str, float]] = field(default_factory=list)
    unsound_nodes: set[str] = field(default_factory=set)
    call_errors: set[str] = field(default_factory=set)


def _setup_probes(args) -> list[tuple[float, float]]:
    """Set up SETUP_PROBES times, each in a fresh interpreter, timed from just
    before the process is started to just before its first call would run.
    Returns each probe's time and the mean reference time around it."""
    samples = []
    before = _reference_s()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = float(done.stdout.split()[-1]) - t0
        after = _reference_s()
        samples.append((probe, (before + after) / 2))
        before = after
    return samples


def _repeat(calls, out_root: Path, m: Measurement, tracer=None) -> list[tuple[float, float]]:
    """One repetition: every call of the workload, in order, with the
    reference timed between calls. Returns each call's time and the mean of
    the reference times on either side of it. A call that raises is reported
    and leaves no output, so its trials count as failed."""
    from dreamcraft import harness
    from workloads import digest

    shutil.rmtree(out_root, ignore_errors=True)
    times = []
    before = _reference_s()
    with tracer.installed() if tracer else nullcontext():
        for call in calls:
            t0 = time.perf_counter()
            try:
                harness.run_experiment(call.spec, out_root / call.out)
            except Exception:  # the benchmark reports the failure and goes on
                traceback.print_exc()
                m.call_errors.add(f"{call.out}: {traceback.format_exc().splitlines()[-1]}")
            elapsed = time.perf_counter() - t0
            after = _reference_s()
            times.append((elapsed, (before + after) / 2))
            before = after
    (m.traced_digests if tracer else m.digests).add(digest(out_root))
    return times


def _wall_s(repetitions: list[list[tuple[float, float]]]) -> float:
    """Sum over the calls of each call's fastest scaled time across the
    repetitions."""
    return sum(min(_scaled(t, r) for t, r in times) for times in zip(*repetitions))


def _measure(args, calls, out_root: Path, m: Measurement) -> None:
    """Repeat until --seconds are measured (at least MIN_REPETITIONS times);
    with tracing, alternate untraced and traced repetitions."""
    from tracer import Tracer

    started = time.perf_counter()
    while True:
        m.untraced.append(_repeat(calls, out_root, m))
        if args.trace:
            tracer = Tracer()
            m.traced.append(_repeat(calls, out_root, m, tracer))
            m.layer_metrics.append(tracer.metrics())
            m.unsound_nodes.update(tracer.unsound_nodes)
        elapsed = time.perf_counter() - started
        if len(m.untraced) >= MIN_REPETITIONS and elapsed * (1 + 1 / len(m.untraced)) > args.seconds:
            return


def _mean(values: list[float]) -> float:
    return statistics.mean(values) if values else 0.0  # no trial left output: the run is reported incorrect


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        _build(args.workload, args.seed)
        print(time.monotonic())
        return 0
    m = Measurement()
    if args.trace:
        return run_traced(args, *_build(args.workload, args.seed), m)
    setup = _setup_probes(args)
    return run_untraced(args, *_build(args.workload, args.seed), m, setup)


def _report(args, lines: list[str], correct: bool, outcome, metrics: dict) -> int:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics},
            sort_keys=False,
        )
    )
    return 0


def _timing_lines(repetitions: list[list[tuple[float, float]]]) -> list[str]:
    raw = [sum(t for t, _ in times) for times in repetitions]
    q1, median, q3 = statistics.quantiles(raw, n=4, method="inclusive")
    fastest = sum(min(t for t, _ in times) for times in zip(*repetitions))
    references = sorted(r for times in repetitions for _, r in times)
    return [
        f"unscaled: fastest call times summed {fastest:.4f} s, repetition time quartiles "
        f"{q1:.4f} {median:.4f} {q3:.4f} s",
        f"reference loop around calls: {1000 * references[0]:.3f} to {1000 * references[-1]:.3f} ms, "
        f"median {1000 * statistics.median(references):.3f} ms (nominal {1000 * REFERENCE_NOMINAL_S:.3f} ms)",
    ]


def run_untraced(args, calls, out_root, m: Measurement, setup: list[tuple[float, float]]) -> int:
    from workloads import read_outcome

    _measure(args, calls, out_root, m)
    outcome = read_outcome(calls, out_root)
    wall_s = _wall_s(m.untraced)
    setup_s = statistics.median(_scaled(t, r) for t, r in setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "iters_per_s": {"value": outcome.iterations / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "env_steps_mean": {"value": _mean(outcome.env_steps), "unit": "steps"},
        "verified_share": {"value": _mean(outcome.verified_shares), "unit": "fraction"},
    }
    errors = outcome.errors + sorted(m.call_errors)
    if len(m.digests) != 1:
        errors.append(f"repetitions emitted {len(m.digests)} different outputs")
    lines = [f"digest sha256:{d}" for d in sorted(m.digests)]
    lines.append(f"trials attempted {outcome.attempted} failed {outcome.failed}")
    lines.append(f"repetitions {len(m.untraced)}; iterations per repetition {outcome.iterations}")
    lines += _timing_lines(m.untraced)
    lines.append("setup_s unscaled samples " + " ".join(f"{t:.4f}" for t, _ in setup))
    lines += [f"{name} {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    lines += [f"ERROR {e}" for e in errors]
    return _report(args, lines, not errors, outcome, metrics)


def run_traced(args, calls, out_root, m: Measurement) -> int:
    from tracer import self_time_shares, unit_of
    from workloads import read_outcome

    _measure(args, calls, out_root, m)
    outcome = read_outcome(calls, out_root)
    errors = outcome.errors + sorted(m.call_errors)
    digests = m.digests | m.traced_digests
    if len(digests) != 1:
        errors.append("traced output differs from untraced output")
    if m.unsound_nodes:
        errors.append(f"verified nodes whose incoming edges differ from ground truth: {sorted(m.unsound_nodes)[:10]}")

    values = {key: statistics.median(rep[key] for rep in m.layer_metrics) for key in m.layer_metrics[0]}
    untraced_s, traced_s = _wall_s(m.untraced), _wall_s(m.traced)
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}

    functions, layers = self_time_shares(values)
    lines = [f"digest sha256:{d}" for d in sorted(digests)]
    lines.append(f"trials attempted {outcome.attempted} failed {outcome.failed}")
    lines.append(
        f"repetitions {len(m.untraced)} untraced + {len(m.traced)} traced; wall_s untraced {untraced_s:.4f} s, "
        f"traced {traced_s:.4f} s; tracing overhead {values['trace.overhead_s']:.4f} s "
        f"({values['trace.overhead_s'] / untraced_s:.1%})"
    )
    lines += _timing_lines(m.untraced)
    lines.append("share of self time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in layers.items()))
    lines.append("share of self time by function, largest first:")
    lines += [f"  {k:36s} {v:6.1%}" for k, v in sorted(functions.items(), key=lambda kv: -kv[1])[:8]]
    lines += [f"{key} {value:.6g} {unit_of(key)}" for key, value in values.items()]
    lines += [f"ERROR {e}" for e in errors]
    return _report(args, lines, not errors, outcome, metrics)


if __name__ == "__main__":
    raise SystemExit(main())
