"""One workload in a fresh interpreter: set up, or run timed passes.

Started by run.py with ``src`` of the checkout on PYTHONPATH, one BLAS
thread and TODAFRAMES_THREADS unset.

    worker.py JOBDIR --setup-only
        import todaframes.cli and parse every job config, then exit.
    worker.py JOBDIR --reference REF --seconds S --trace 0|1
        run passes over the jobs until S seconds are used, check every
        report against REF, and print one JSON line of results.

A pass calls the CLI entry point ``todaframes.cli.main`` once per job,
one job after the other (one client, closed loop), each writing its
report to a file.  Reports are checked after the pass, outside its time.
With --trace 1, untraced and traced passes alternate after the warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import check
from spans import Tracer

MIN_PASSES = 3


def _job_paths(jobdir: Path) -> list[Path]:
    return sorted(jobdir.glob("job-*.json"))


def setup(jobdir: Path):
    from todaframes.cli import parse_config

    for path in _job_paths(jobdir):
        parse_config(json.loads(path.read_text(encoding="utf-8")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.jobdir)
        return 0

    import numpy
    import todaframes
    from todaframes import cli

    jobs = [(p, json.loads(p.read_text(encoding="utf-8"))["mode"]) for p in _job_paths(args.jobdir)]
    refs = json.loads(args.reference.read_text(encoding="utf-8"))["jobs"]
    if len(refs) != len(jobs):
        print(f"reference has {len(refs)} jobs, workload has {len(jobs)}", file=sys.stderr)
        return 2
    tally = check.Tally()
    tracer = Tracer() if args.trace else None

    def one_pass():
        codes = []
        for path, mode in jobs:
            try:
                codes.append(cli.main([mode, "--config", str(path), "--out", str(path.with_suffix(".out"))]))
            except Exception:
                codes.append(traceback.format_exc(limit=3))
        return codes

    def check_pass(codes):
        for (path, _), code, ref in zip(jobs, codes, refs):
            out = path.with_suffix(".out")
            label = path.stem
            if code not in (0, 1):
                tally.job_failed(label, f"exit {code}", len(ref["points"]))
            else:
                try:
                    report = json.loads(out.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    tally.job_failed(label, f"no report: {exc}", len(ref["points"]))
                    continue
                tally.check(label, report, ref)
            out.unlink(missing_ok=True)

    untraced: list[float] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    # The first pass grows the heap and fills lazy state; it is checked
    # but not timed.
    check_pass(one_pass())
    while True:
        t0 = time.perf_counter()
        codes = one_pass()
        last = time.perf_counter() - t0
        untraced.append(last)
        check_pass(codes)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                codes = tracer.root(one_pass)
                last += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            traced.append(tracer.metrics())
            check_pass(codes)
        enough = tracer is not None or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() + last > deadline:
            break

    result = {
        "pass_s": untraced,
        "traced": traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "correct": tally.correct,
        "jobs": tally.jobs,
        "jobs_failed": tally.jobs_failed,
        "points": tally.points,
        "points_failed": tally.points_failed,
        "worst_residual": tally.worst_residual,
        "mismatches": tally.mismatches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "package": todaframes.__file__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
