"""Alternate CLI passes of two checkouts in one process, and tabulate them.

    python tools/inprocess_pairs.py PARENT CHANGE --workload W --seed K --passes N

PARENT and CHANGE are the roots of two checkouts.  Each checkout's
``src/todaframes`` is loaded under its own module name,
``todaframes_parent`` and ``todaframes_change``, into this one process.
The jobs of the workload at seed K (``make_jobs`` of the CHANGE checkout's
``bench/corpus.py``, full size) are written once to a temporary directory.
A pass calls ``cli.main`` of one side once per job, one job after the
other, as ``bench/worker.py`` does, writing each report to a file.

After one untimed warm-up pass of each side, pair i times one pass of each
side; the parent runs first on even pairs and the change on odd ones, so
a drift of the host falls on both sides alike, and both sides share one
heap and one BLAS, which ``bench/run.py`` runs in separate interpreters.
BLAS runs on one thread, as in the benchmark workers.

The tool prints, per side, the fastest pass, the median pass and its
quartiles, in milliseconds, then how many pairs the change won (its pass
was faster) and the median of change / parent over the pairs.

The tool only reports and edits nothing.  CI runs it on one Python
version, after the corpus report diff, whether or not that diff passed,
with the parent commit as PARENT, and writes its tables to the step
summary; no timing fails that step.  It exits 0 when every job of every
pass exited 0 or 1 (a job whose points fail their checks exits 1), 1 when
one did not or raised, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_package(root: Path, side: str):
    """The checkout's todaframes package as the module todaframes_<side>,
    with its cli submodule imported."""
    name = f"todaframes_{side}"
    for loaded in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[loaded]  # an earlier load, maybe of another checkout
    package = root / "src" / "todaframes"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_corpus(root: Path):
    spec = importlib.util.spec_from_file_location("inprocess_corpus", root / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def order(pair: int) -> tuple[int, int]:
    """The side indices in the order they run in this pair."""
    return (0, 1) if pair % 2 == 0 else (1, 0)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(times: tuple[list[float], list[float]]) -> list[str]:
    """The Markdown lines for the pass times in seconds, one list a side in
    pair order."""
    lines = ["| side | min ms | median ms | quartiles ms |", "| --- | --- | --- | --- |"]
    for side, values in zip(SIDES, times):
        q1, q3 = quartiles(values)
        lines.append(
            f"| {side} | {1e3 * min(values):.4g} | {1e3 * statistics.median(values):.4g} "
            f"| {1e3 * q1:.4g} .. {1e3 * q3:.4g} |"
        )
    parent, change = times
    won = sum(c < p for p, c in zip(parent, change))
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    lines += ["", f"change won {won} of {len(parent)} pairs; median change / parent {ratio:.4f}"]
    return lines


def main(argv: list[str] | None = None, clock=time.perf_counter) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    roots = (args.parent, args.change)
    for root in roots:
        if not (root / "src" / "todaframes" / "__init__.py").is_file():
            parser.error(f"no src/todaframes under {root}")
    if not (args.change / "bench" / "corpus.py").is_file():
        parser.error(f"no bench/corpus.py under {args.change}")
    corpus = load_corpus(args.change)
    try:
        jobs = corpus.make_jobs(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    clis = [load_package(root, side) for root, side in zip(roots, SIDES)]

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, job in enumerate(jobs):
            path = Path(tmp) / f"job-{i:02d}.json"
            path.write_text(json.dumps(job), encoding="utf-8")
            paths.append((path, job["mode"]))

        def one_pass(k: int) -> float:
            t0 = clock()
            for path, mode in paths:
                out = path.with_name(f"{path.stem}-{SIDES[k]}.out")
                try:
                    code = clis[k].main([mode, "--config", str(path), "--out", str(out)])
                except Exception as exc:  # a crash of either side ends the comparison
                    code = f"{type(exc).__name__}: {exc}"
                if code not in (0, 1):
                    raise RuntimeError(f"the {SIDES[k]} job {path.name} ({mode}) ended with {code}")
            return clock() - t0

        times = ([], [])
        try:
            for k in (0, 1):
                one_pass(k)
            for pair in range(args.passes):
                for k in order(pair):
                    times[k].append(one_pass(k))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    print(f"# workload {args.workload} seed {args.seed} passes {args.passes}")
    print(f"# parent {args.parent}  change {args.change}")
    print()
    print("\n".join(report(times)))
    return 0


if __name__ == "__main__":
    # one BLAS thread, as in the benchmark workers: numpy is not loaded yet
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
