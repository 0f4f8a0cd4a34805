#!/usr/bin/env python3
"""Plot verified-graph growth curves from one or more open-ended result
directories (as produced by `dreamcraft explore` or reproduce_results.py).

Usage: plot_curves.py DIR [DIR ...] [--out curves.png]
"""
import argparse
import csv
import json
from pathlib import Path


def load_curves(directory: Path):
    """The verified counts of every curve file that the directory's manifest
    lists, in name order. A curve left by an earlier run with more seeds is
    not listed, so it is not read; a directory without a manifest has none."""
    manifest = directory / "manifest.json"
    if not manifest.is_file():
        return []
    curves = []
    for name in json.loads(manifest.read_text(encoding="utf-8"))["files"]:
        if name.startswith("curves_seed") and name.endswith(".csv"):
            with open(directory / name, newline="") as fh:
                curves.append([int(r["verified"]) for r in csv.DictReader(fh)])
    return curves


def mean_curve(curves):
    horizon = max(len(c) for c in curves)
    padded = [c + [c[-1]] * (horizon - len(c)) for c in curves]
    return [sum(c[i] for c in padded) / len(padded) for i in range(horizon)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dirs", nargs="+", type=Path)
    parser.add_argument("--out", default="curves.png")
    args = parser.parse_args()

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; install it to plot")
        return 1

    fig, ax = plt.subplots(figsize=(7, 4.5))
    for directory in args.dirs:
        curves = load_curves(directory)
        if not curves:
            print(f"no curve files in {directory}, skipping")
            continue
        mean = mean_curve(curves)
        ax.plot(range(1, len(mean) + 1), mean, label=directory.name)
        for curve in curves:
            ax.plot(range(1, len(curve) + 1), curve, alpha=0.15, color=ax.lines[-1].get_color())
    ax.set_xlabel("iteration")
    ax.set_ylabel("verified nodes")
    ax.set_title("verified belief-graph growth")
    ax.legend()
    fig.tight_layout()
    fig.savefig(args.out, dpi=150)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
