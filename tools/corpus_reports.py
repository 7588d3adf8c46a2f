"""Write the report of every benchmark corpus job, for byte-for-byte diffs.

    PYTHONPATH=src python tools/corpus_reports.py OUTDIR

Runs every job of ``bench/corpus.py`` at seeds 0 and 3, full and tiny,
plus the toda-general jobs in ``verify-toda`` mode, through ``cli.run``,
and writes each report as the CLI writes it, ``emit(report)``, with an
empty ``generated_at``, one file per job (46 in all).  A fixed list of
jobs with inputs the bench corpus lacks (``EXTRA_JOBS``) follows: float
coefficients, a metric other than the identity, failed points, huge Toda
entries, a Toda seed whose gamma is not hermitian and two normal curves
with widely scaled levels (10 files), 56 files in all.  Two checkouts give
the same reports, and the same report bytes, exactly when ``diff -r`` of
their two output directories is empty.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import SIZES, WORKLOADS, make_jobs  # noqa: E402

from todaframes.cli import emit, run  # noqa: E402

SEEDS = (0, 3)

# jobs outside the bench corpus: float coefficients made exact by the
# parser, a metric, failed points, huge entries, a Toda job outside
# hermitian mode and scaled levels
EXTRA_JOBS = {
    "verify-frenet-float": {
        "mode": "verify-frenet",
        "curve": [[[1]], [[0, 0.5]], [[0, 0, [0.3, 0.1]]]],
        "grid": {"center": [0.1, -0.2], "radius": 0.6, "nx": 3, "ny": 3},
    },
    # the first rng-57 lift in the metric G^dagger G, with G the first
    # Gaussian-integer matrix plus 6I of the metric covariance test in
    # tests/test_cli.py: [[8+i, 1, 0, -1+2i], [-1-i, 4+2i, -2+i, -2-2i],
    # [-2-i, 2+2i, 7, 2-2i], [i, 1+i, 2+2i, 7-2i]]
    "verify-frenet-metric": dict(
        make_jobs("exact-corpus", 0)[0],
        mode="verify-frenet",
        metric_h=[
            [[73, 0], [-3, -2], [-11, 2], [-6, 16]],
            [[-3, 2], [31, 0], [12, -6], [-8, -19]],
            [[-11, -2], [12, 6], [62, 0], [26, -26]],
            [[-6, -16], [-8, 19], [26, 26], [74, 0]],
        ],
    ),
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
    # (1, s z, ..., s^d z^d) with s = 100: the normal curve in the metric
    # diag(s^(2i)), whose levels differ in scale by up to 100^d
    **{
        f"verify-frenet-normal{d}-s100": {
            "mode": "verify-frenet",
            "curve": [[[0] * m + [100**m]] for m in range(d + 1)],
            "grid": {"radius": 0.7, "nx": 7, "ny": 7},
        }
        for d in (4, 6)
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: corpus_reports.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, job in itertools.chain(corpus_jobs(), EXTRA_JOBS.items()):
        (out / f"{name}.json").write_bytes(emit(dataclasses.replace(run(job), generated_at="")))
        count += 1
    print(f"wrote {count} reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
