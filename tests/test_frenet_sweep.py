"""Seeded random ``verify-frenet`` jobs through the CLI entry point.

Each job draws a curve of n rows (2 to 6) and k columns (1 to
min(3, n - 1)) whose entries are polynomials of one degree (1 to 5) with
Gaussian-integer coefficients in [-3, 3]; every second job adds the metric
G^dagger G, G a Gaussian-integer matrix in [-2, 2] plus 4I.  The grid is
3x3, of radius 0.3, 1 or 3, centred in [-1, 1]^2.  Far from the origin the
levels are dominated by their leading terms, so some points fail their
gram block guard: a job may exit 1, but only with failed points that name
the gram block, and never with an uncaught exception or a line on stderr.
"""

from __future__ import annotations

import contextlib
import json
import re

import numpy as np
import pytest
from test_cli import gaussian_integers, pairs

from todaframes.cli import main, parse_config
from todaframes.poly import Poly, minor_gcd

JOB_COUNT = 25
FAILED = re.compile(r"failed: SingularBeta: gram block \d+ at z=")


def sweep_jobs() -> list[dict]:
    rng = np.random.default_rng(0)
    jobs = []
    for i in range(JOB_COUNT):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        degree = int(rng.integers(1, 6))
        curve = gaussian_integers(rng, 3, (n, k, degree + 1))
        job = {
            "mode": "verify-frenet",
            "curve": [pairs(row) for row in curve],
            "grid": {
                "center": rng.uniform(-1, 1, size=2).tolist(),
                "radius": float(rng.choice([0.3, 1.0, 3.0])),
                "nx": 3,
                "ny": 3,
            },
        }
        if i % 2:
            g = gaussian_integers(rng, 2, (n, n)) + 4 * np.eye(n)
            job["metric_h"] = pairs(g.conj().T @ g)
        jobs.append(job)
    return jobs


@pytest.mark.parametrize("job", sweep_jobs(), ids=[f"job{i}" for i in range(JOB_COUNT)])
def test_sweep_job_fails_only_at_the_gram_guard(job, tmp_path, capsys):
    path, out = tmp_path / "job.json", tmp_path / "report.json"
    path.write_text(json.dumps(job))
    constant_rank = minor_gcd(parse_config(job).curve.columns()) == Poly.one()
    with contextlib.nullcontext() if constant_rank else pytest.warns(UserWarning, match="constant rank"):
        code = main(["verify-frenet", "--config", str(path), "--out", str(out)])
    assert code in (0, 1)
    assert capsys.readouterr().err == ""
    statuses = [p["status"] for p in json.loads(out.read_text())["points"]]
    assert all(s == "ok" or FAILED.match(s) for s in statuses)
