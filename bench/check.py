"""Reference reports and the check of a pass's reports against them.

A reference keeps, per job, the exactly comparable summary fields and,
per point, the status and the ``g_*`` / ``ln_det_beta_*`` values.  Exact
fields must be equal; values must agree within ``RTOL`` relative to
max(1, |reference|).  Residuals are not stored: each run gates them
against the job's own ``residual_tol`` instead.

A point fails when its status is not ``ok``, when a residual exceeds
``residual_tol``, or when it disagrees with the reference.  A job whose
summary disagrees fails every point; a point missing from either side is
a failure, never skipped.
"""

from __future__ import annotations

import math
import re

RTOL = 1e-8
EXACT_SUMMARY = ("partition", "rank_drop", "linear_full", "hermitian_mode", "residual_tol", "points_total", "points_ok")
VALUE_NAME = re.compile(r"(g|ln_det_beta)_\d+")


def extract(report: dict) -> dict:
    """The part of a report that the reference keeps."""
    summary = report["summary"]
    return {
        "mode": report["mode"],
        "summary": {k: summary[k] for k in EXACT_SUMMARY if k in summary},
        "points": [
            {
                "z": p["z"],
                "status": p["status"],
                "values": {k: v for k, v in sorted(p["values"].items()) if VALUE_NAME.fullmatch(k)},
            }
            for p in report["points"]
        ],
    }


class Tally:
    """Points and jobs checked so far, and the worst residual seen."""

    def __init__(self):
        self.points = 0
        self.points_failed = 0
        self.jobs = 0
        self.jobs_failed = 0
        self.worst_residual = 0.0
        self.mismatches: list[str] = []

    def job_failed(self, label: str, why: str, points: int):
        self.jobs += 1
        self.jobs_failed += 1
        self.points += points
        self.points_failed += points
        self._note(f"{label}: {why}")

    def _note(self, text: str):
        if len(self.mismatches) < 10:
            self.mismatches.append(text)

    def check(self, label: str, report: dict, ref: dict):
        """Tally one job's report against its reference."""
        self.jobs += 1
        ref_points = ref["points"]
        summary = report.get("summary", {})
        points = report.get("points", [])
        wrong = [k for k, v in ref["summary"].items() if summary.get(k) != v]
        if report.get("mode") != ref["mode"]:
            wrong.append("mode")
        if wrong or len(points) != len(ref_points):
            self.jobs_failed += 1
            n = max(len(points), len(ref_points))
            self.points += n
            self.points_failed += n
            self._note(f"{label}: summary differs in {wrong or ['point count']}")
            return
        tol = summary["residual_tol"]
        job_ok = True
        for k, (p, r) in enumerate(zip(points, ref_points)):
            self.points += 1
            residuals = p.get("residuals", {}).values()
            worst = max((v if math.isfinite(v) else math.inf for v in residuals), default=0.0)
            self.worst_residual = max(self.worst_residual, worst)
            why = _disagreement(p, r)
            if why:
                job_ok = False
                self._note(f"{label} point {k}: {why}")
            if why or p.get("status") != "ok" or worst > tol:
                self.points_failed += 1
        if not job_ok:
            self.jobs_failed += 1

    @property
    def correct(self) -> bool:
        return self.jobs > 0 and self.jobs_failed == 0


def _disagreement(point: dict, ref: dict) -> str | None:
    if point.get("status") != ref["status"]:
        return f"status {point.get('status')!r}, reference {ref['status']!r}"
    z = point.get("z", [math.nan, math.nan])
    if any(not math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(z, ref["z"])):
        return f"z {z}, reference {ref['z']}"
    values = {k: v for k, v in point.get("values", {}).items() if VALUE_NAME.fullmatch(k)}
    if set(values) != set(ref["values"]):
        return f"value names {sorted(values)}, reference {sorted(ref['values'])}"
    for k, want in ref["values"].items():
        got = values[k]
        if not abs(got - want) <= RTOL * max(1.0, abs(want)):
            return f"{k} = {got!r}, reference {want!r}"
    return None
