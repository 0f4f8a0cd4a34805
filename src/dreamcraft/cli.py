"""Command-line interface: explore / task / robustness / baseline / score /
parse. Exit code 0 on completed experiments, nonzero on spec or I/O errors.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .datafiles import pickaxe16_path
from .harness import ExperimentSpec, run_experiment
from .hypotheses import build_hypothesized_awm, normalize_aliases, parse_recipe_dict
from .tech_tree import load_tree_file


def _parse_seeds(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    return tuple(range(int(text)))


def _parse_rates(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


# A spec flag's destination is the field it sets and its default is that
# field's default, so `_spec_from_args` passes the flags on by name.
_SPEC_DEFAULTS = {f.name: f.default for f in fields(ExperimentSpec)}


def _add_common(parser: argparse.ArgumentParser, hypothesis: bool = True, iterations: bool = True) -> None:
    """The spec flags. `robustness` always perturbs the ground truth and
    `baseline` builds no belief graph, so they take no `--hypothesis`;
    `score` runs no agent, so it takes no `--max-iterations`."""
    d = _SPEC_DEFAULTS
    parser.add_argument("--tree", dest="tree_path", default=str(pickaxe16_path()), help="tree definition file")
    if hypothesis:
        parser.add_argument(
            "--hypothesis",
            default=d["hypothesis"],
            help="file:PATH | perturb:INSERT,DELETE | empty | truth",
        )
    parser.add_argument("--seeds", type=_parse_seeds, default=d["seeds"], help="count N or comma list")
    if iterations:
        parser.add_argument("--max-iterations", type=int, default=d["max_iterations"])
    parser.add_argument("--out", default="results", help="output directory")


def _spec_from_args(args) -> ExperimentSpec:
    given = {name: value for name, value in vars(args).items() if name in _SPEC_DEFAULTS}
    experiment = {"explore": "open_ended"}.get(args.command, args.command)
    return ExperimentSpec(experiment=experiment, **given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreamcraft",
        description="Crafting-tree exploration experiments with hypothesized belief graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="open-ended exploration curves")
    _add_common(p)

    p = sub.add_parser("task", help="goal-directed run with an empty-hypothesis reference")
    p.add_argument("goal", metavar="item", help="goal item")
    _add_common(p)

    p = sub.add_parser("robustness", help="goal runs over a grid of injected edge errors")
    p.add_argument("--goal", default="stone_pickaxe")
    p.add_argument("--insert-rates", type=_parse_rates, default=(0.0, 0.2))
    p.add_argument("--delete-rates", type=_parse_rates, default=(0.0, 0.2))
    _add_common(p, hypothesis=False)

    p = sub.add_parser("baseline", help="random-explorer discovery curves (no belief graph)")
    _add_common(p, hypothesis=False)

    p = sub.add_parser("score", help="score a hypothesis against the ground truth")
    _add_common(p, iterations=False)

    p = sub.add_parser("parse", help="recipe-dictionary document to belief-graph JSON")
    p.add_argument("input", nargs="?", default="-", help="document path, or - for stdin")
    p.add_argument("--tree", default=str(pickaxe16_path()), help="tree supplying the node universe")
    p.add_argument("--out", default="-", help="output path for the belief-graph JSON")
    return parser


def _cmd_parse(args) -> int:
    tree = load_tree_file(args.tree)
    if args.input == "-":
        # Decoded as a path is read, whatever the locale: UTF-8, with universal newlines.
        text = sys.stdin.buffer.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    else:
        text = Path(args.input).read_text(encoding="utf-8")

    result = parse_recipe_dict(text)
    for skip in result.skipped:
        print(f"skipped entry {skip.key!r} (line {skip.line}): {skip.reason}", file=sys.stderr)
    entries = normalize_aliases(result.entries)
    awm = build_hypothesized_awm(entries, set(tree.items))
    payload = awm.to_json()
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(payload, encoding="utf-8", newline="\n")
        print(f"wrote {args.out} ({len(entries)} entries, {len(result.skipped)} skipped)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            return _cmd_parse(args)
        files = run_experiment(_spec_from_args(args), args.out)
        for path in files:
            print(path)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
