"""Write the report of every benchmark corpus job, for byte-for-byte diffs.

    PYTHONPATH=src python tools/corpus_reports.py OUTDIR

Runs every job of ``bench/corpus.py`` at seeds 0 and 3, full and tiny,
plus the toda-general jobs in ``verify-toda`` mode, through ``cli.run``,
and writes each report as the CLI writes it, ``emit(report, "json")``,
with an empty ``generated_at``, one file per job (46 in all).  The bench
corpus has no grading or gauss job, no float coefficient, no failed point
and no CSV of a Toda job outside hermitian mode, so a fixed list of such
jobs (``EXTRA_JOBS``) follows, each written both as that JSON and as
``emit(report, "csv")`` (26 files), 72 files in all.  Two checkouts give the same reports, and the same report bytes,
exactly when ``diff -r`` of their two output directories is empty.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import SIZES, WORKLOADS, make_jobs  # noqa: E402

from todaframes.cli import emit, run  # noqa: E402

SEEDS = (0, 3)

# jobs outside the bench corpus: the grading weights, the gauss pipeline
# with its failure text, and float coefficients made exact by the parser
EXTRA_JOBS = {
    "grading-1-1": {"mode": "grading", "gradation": {"sizes": [1, 1], "labels": [2]}},
    "grading-2-1": {"mode": "grading", "gradation": {"sizes": [2, 1], "labels": [2]}},
    "grading-1-2-1": {"mode": "grading", "gradation": {"sizes": [1, 2, 1], "labels": [1, 3]}},
    "gauss-matrices": {
        "mode": "gauss",
        "gradation": {"sizes": [1, 2]},
        "matrices": [
            [[2, 1, 0], [1, 3, [0, 1]], [0, [0, -1], 4]],
            # the leading 1 by 1 block vanishes, so this point fails
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[1.5, [0.25, -0.5], 0], [0, 1, 0.75], [1, 0, 2]],
        ],
    },
    "gauss-count": {"mode": "gauss", "gradation": {"sizes": [2, 1]}, "count": 3, "seed": 5},
    # the squared norm of the entry overflows, which must stay off stderr
    "gauss-huge-entry": {
        "mode": "gauss",
        "gradation": {"sizes": [1, 1]},
        "matrices": [[[1e200, 0], [0, 1]]],
    },
    "verify-frenet-float": {
        "mode": "verify-frenet",
        "curve": [[[1]], [[0, 0.5]], [[0, 0, [0.3, 0.1]]]],
        "grid": {"center": [0.1, -0.2], "radius": 0.6, "nx": 3, "ny": 3},
    },
    # failed points, which no corpus job has: every point but the centre
    # fails its gram block guard, and the seed diag(z, 1) is singular on
    # the legs from 0.5 to two points
    "verify-frenet-huge-grid": {
        "mode": "verify-frenet",
        "curve": [[[1]], [[0, 1]], [[0, 0, 1]], [[0, 0, 0, 1]]],
        "grid": {"radius": 1e60, "nx": 3, "ny": 3},
    },
    **{
        f"{mode}-singular-seed": {
            "mode": mode,
            "gradation": {"sizes": [1, 1], "labels": [1]},
            "grid": {"radius": 0.7, "nx": 3, "ny": 3},
            "integration": {"basepoint": 0.5},
            "seeds": {"gamma_minus": [[[0, 1], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1], [0]]]},
        }
        for mode in ("toda-solve", "verify-toda")
    },
    # huge Toda data, whose overflows must stay off stderr: gamma's
    # assembly in solve, and the squared norms of the residual scaling
    "verify-toda-huge-seed": {
        "mode": "verify-toda",
        "gradation": {"sizes": [1, 1]},
        "seeds": {"gamma_minus": [[[1e200], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1], [0]]]},
    },
    "verify-toda-huge-c": {
        "mode": "verify-toda",
        "gradation": {"sizes": [1, 1]},
        "seeds": {"gamma_minus": [[[1], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1e150], [0]]]},
    },
    # outside hermitian mode: the toda_a columns alone, and a seed whose
    # gamma is not hermitian
    "toda-solve-general": {
        "mode": "toda-solve",
        "gradation": {"sizes": [1, 1], "labels": [1]},
        "grid": {"radius": 0.7, "nx": 3, "ny": 3},
        "hermitian_mode": False,
        "seeds": {
            "gamma_minus": [[[1, 0.25], [0]], [[0], [1]]],
            "gamma_plus": [[[1], [0]], [[0], [1]]],
            "c_minus": [[[0], [0]], [[1], [0]]],
            "c_plus": [[[0], [-1]], [[0], [0]]],
        },
    },
}


def corpus_jobs():
    """(name, job) for every corpus report, in a fixed order."""
    for seed in SEEDS:
        for size in SIZES:
            for workload in WORKLOADS:
                for i, job in enumerate(make_jobs(workload, seed, size)):
                    yield f"{workload}-seed{seed}-{size}-{i}", job
                    if workload == "toda-general":
                        yield f"{workload}-verify-toda-seed{seed}-{size}-{i}", dict(job, mode="verify-toda")


def _write_json(path: Path, report) -> None:
    path.write_bytes(emit(dataclasses.replace(report, generated_at=""), "json"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: corpus_reports.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, job in corpus_jobs():
        _write_json(out / f"{name}.json", run(job))
        count += 1
    for name, job in EXTRA_JOBS.items():
        report = run(job)
        _write_json(out / f"{name}.json", report)
        (out / f"{name}.csv").write_bytes(emit(report, "csv"))
        count += 2
    print(f"wrote {count} reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
