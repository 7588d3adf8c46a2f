"""todaframes benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact-corpus --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src`` of
that checkout; nothing is installed.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics, with
--trace 1 one with the per-layer metrics.  The lines before it repeat
the metrics for people, with the header of the run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from math import log10
from pathlib import Path

from corpus import SIZES, WORKLOADS, make_jobs
from spans import unit_of

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    """The package from the checkout, one BLAS thread, no package knob, and
    the bytecode cache on, as for an installed package, in every caller's
    environment."""
    drop = ("TODAFRAMES_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def header(root: Path, worker: dict) -> str:
    sha = ""
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))
    return (
        f"# python {worker['python']} numpy {worker['numpy']} nproc {os.cpu_count()} "
        f"git {sha or 'unknown'} src_lines {src_lines}"
    )


def time_setup(workdir: Path, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse the
    configs.  One untimed start first, so every timed one finds the
    bytecode cache written.  No timeout: waiting with one polls in 50 ms
    steps, which would round the times."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(workdir), "--setup-only"]
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny is for the self test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    reference = BENCH / "reference" / f"{args.workload}-{args.size}.json"
    if not (root / "src" / "todaframes" / "cli.py").is_file():
        print(f"no package source at {root / 'src' / 'todaframes'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not reference.is_file():
        print(f"no reference reports at {reference}", file=sys.stderr)
        return 2

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for k, job in enumerate(make_jobs(args.workload, args.seed, args.size)):
            (workdir / f"job-{k:02d}.json").write_text(json.dumps(job), encoding="utf-8")
        env = child_env(root)
        setup = [] if args.trace else time_setup(workdir, env)
        proc = subprocess.run(
            [
                sys.executable,
                str(BENCH / "worker.py"),
                str(workdir),
                "--reference",
                str(reference),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(worker["package"]).resolve().is_relative_to((root / "src").resolve()):
        print(f"measured {worker['package']}, not the checkout's source", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} size {args.size} seconds {args.seconds:g} trace {args.trace}")
    print(header(root, worker))
    for line in worker["mismatches"]:
        print(f"# MISMATCH {line}")
    failed_frac = worker["points_failed"] / max(1, worker["points"])
    print(f"failed_frac {failed_frac:.6g} ratio ({worker['points_failed']}/{worker['points']} points)")
    if args.trace:
        metrics, units = layer_metrics(worker)
        print(f"# untraced passes: {_fmt(worker['pass_s'])}")
        print(f"# traced passes: {_fmt(m['trace.job_s'] for m in worker['traced'])}")
    else:
        job_s = statistics.median(worker["pass_s"])
        metrics = {
            "setup_s": statistics.median(setup),
            "job_s": job_s,
            "accuracy_digits": -log10(max(worker["worst_residual"], 1e-300)),
            "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        }
        units = {"setup_s": "s", "job_s": "s", "accuracy_digits": "digits", "peak_rss_mb": "MB"}
        print(f"# setup_s: median of {len(setup)} fresh interpreters: {_fmt(setup)}")
        print(f"# job_s: median of {len(worker['pass_s'])} passes: {_fmt(worker['pass_s'])}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": worker["correct"],
                "attempted": worker["jobs"],
                "failed": worker["jobs_failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def _fmt(times) -> str:
    return " ".join(f"{t:.3f}" for t in times)


def layer_metrics(worker: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass whose time is the median, so
    that the layer self times add up to its job time."""
    passes = sorted(worker["traced"], key=lambda m: m["trace.job_s"])
    chosen = dict(passes[(len(passes) - 1) // 2])
    chosen["trace.overhead_s"] = chosen["trace.job_s"] - statistics.median(worker["pass_s"])
    return chosen, {name: unit_of(name) for name in chosen}


if __name__ == "__main__":
    sys.exit(main())
