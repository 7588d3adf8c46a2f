"""Alternate benchmark runs of two checkouts in pairs, and tabulate them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``python3 bench/run.py --workload W --seed K --seconds S --trace 0`` once
in each checkout, with that checkout as the working directory, so each run
measures its own source with its own ``bench/``.  The side that runs first
switches on every pair: the parent on even pairs, the change on odd ones,
so a drift of the host in time falls on both sides alike.

The last line of a run's standard output is its JSON.  The tool prints one
Markdown table per end-to-end metric, with a row per pair (the side that
ran first, both values, change / parent), then a summary table: per metric
the median and the quartiles of each side, and the number of pairs the
change won.  A pair is won when the change's value is better in the
direction that the CHANGE checkout's ``BENCHMARK.json`` gives the metric
("-" when it gives none).  A run that reports ``correct`` false is named
after the tables.

The tool only reports: it is not part of CI and edits nothing.  It exits 0
when every run ended with exit code 0, 1 when one did not (its standard
error is shown and no table is printed), and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One run of the checkout's bench/run.py with it as the working directory."""
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root, capture_output=True, text=True)


def order(pair: int) -> tuple[int, int]:
    """The side indices in the order they run in this pair."""
    return (0, 1) if pair % 2 == 0 else (1, 0)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def directions(root: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {m["name"]: m["better"] for m in declared.get("end_to_end", [])}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def _won(parent: float, change: float, better: str | None) -> bool | None:
    if better == "lower":
        return change < parent
    if better == "higher":
        return change > parent
    return None


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    return ["| " + " | ".join(r) + " |" for r in [header, ["---"] * len(header), *rows]]


def report(runs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """The Markdown lines for the runs, one (parent, change) pair of run.py
    JSON objects a pair, in pair order."""
    names = list(runs[0][0]["metrics"])
    lines = []
    for name in names:
        unit = runs[0][0]["metrics"][name]["unit"]
        rows = []
        for pair, sides in enumerate(runs):
            parent, change = (s["metrics"][name]["value"] for s in sides)
            ratio = change / parent if parent else float("nan")
            rows.append([str(pair), SIDES[order(pair)[0]], _fmt(parent), _fmt(change), f"{ratio:.4f}"])
        lines += [f"## {name} ({unit})", ""]
        lines += _table(["pair", "first", "parent", "change", "change / parent"], rows)
        lines.append("")
    summary = []
    for name in names:
        values = [[s["metrics"][name]["value"] for s in sides] for sides in runs]
        parent, change = ([v[k] for v in values] for k in (0, 1))
        wins = [_won(p, c, better.get(name)) for p, c in values]
        won = "-" if None in wins else f"{sum(wins)} of {len(wins)}"
        row = [name]
        for side in (parent, change):
            q1, q3 = quartiles(side)
            row += [_fmt(statistics.median(side)), f"{_fmt(q1)} .. {_fmt(q3)}"]
        summary.append(row + [won])
    header = ["metric", "parent median", "parent quartiles", "change median", "change quartiles", "change won"]
    lines += ["## summary", ""] + _table(header, summary)
    for pair, sides in enumerate(runs):
        for side, run in zip(SIDES, sides):
            if not run.get("correct", True):
                lines.append(f"pair {pair}: the {side} run reports correct false")
    return lines


def main(argv: list[str] | None = None, runner=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {root}")
    roots = (args.parent, args.change)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
    runs = []
    for pair in range(args.pairs):
        sides = [None, None]
        for k in order(pair):
            proc = runner(roots[k], bench_args)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"pair {pair}: the {SIDES[k]} run exited with {proc.returncode}", file=sys.stderr)
                return 1
            sides[k] = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(tuple(sides))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} pairs {args.pairs}")
    print(f"# parent {args.parent}  change {args.change}")
    print()
    print("\n".join(report(runs, directions(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
