"""Summarise how two directories of corpus reports differ.

    python tools/corpus_moves.py OLD NEW

OLD and NEW are output directories of ``tools/corpus_reports.py``.  For
each file that differs it prints one row of a Markdown table.  For a JSON
report, the row says:

* whether the point statuses, the summaries and the column sets (the
  residual and value names of each point) are equal; a changed column set
  lists the names added (+) and dropped (-);
* the largest move of any ``g_*`` or ``ln_det_beta_*`` value, as
  |new - old| / max(1, |old|), the measure of the bench reference check,
  taken over the points whose status is ok on both sides;
* the worst residual of the report before and after (NaN when any
  residual is NaN);
* whether the exit code is equal, or how it moved (``0→1``, ``1→0``):
  as ``Report.exit_code`` derives it, 1 when any point is not ok or the
  worst residual is not within the summary's ``residual_tol``, else 0.

A file on one side only, or a differing file that is not JSON, gets a row
that says so.  The tool only reports: it exits 0 whatever differs, and 2
on bad arguments.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

MOVED = ("g_", "ln_det_beta_")


def _worst(points) -> float:
    values = [v for p in points for v in p["residuals"].values()]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def _exit(report: dict) -> int:
    points = report["points"]
    ok = all(p["status"] == "ok" for p in points)
    return 0 if ok and _worst(points) <= report["summary"]["residual_tol"] else 1


def _columns(points) -> list[set[str]]:
    return [set(p["residuals"]) | set(p["values"]) for p in points]


def _largest_move(old_points, new_points) -> float | None:
    moves = []
    for p, q in zip(old_points, new_points):
        if p["status"] == q["status"] == "ok":
            a, b = p["values"], q["values"]
            moves += [abs(b[n] - a[n]) / max(1.0, abs(a[n])) for n in a.keys() & b.keys() if n.startswith(MOVED)]
    return max(moves, default=None)


def _row(name: str, old: dict, new: dict) -> list[str]:
    p, q = old["points"], new["points"]
    statuses = [x["status"] for x in p] == [x["status"] for x in q]
    columns = "equal"
    if _columns(p) != _columns(q):
        before, after = set().union(*_columns(p)), set().union(*_columns(q))
        changes = [f"+{c}" for c in sorted(after - before)] + [f"-{c}" for c in sorted(before - after)]
        columns = "differ" + (f" ({', '.join(changes)})" if changes else "")
    move = _largest_move(p, q)
    exits = _exit(old), _exit(new)
    return [
        name,
        "equal" if statuses else "differ",
        "equal" if old["summary"] == new["summary"] else "differ",
        columns,
        "none" if move is None else f"{move:.2g}",
        f"{_worst(p):.3g}",
        f"{_worst(q):.3g}",
        "equal" if exits[0] == exits[1] else "{}→{}".format(*exits),
    ]


def rows(old_dir: Path, new_dir: Path) -> list[list[str]]:
    """One row per file that is on one side only or differs between them."""
    out = []
    for name in sorted({f.name for f in old_dir.iterdir()} | {f.name for f in new_dir.iterdir()}):
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            out.append([name, f"only in {'OLD' if a.exists() else 'NEW'}"] + [""] * (len(HEADER) - 2))
        elif a.read_bytes() != b.read_bytes():
            if a.suffix == ".json":
                out.append(_row(name, json.loads(a.read_text()), json.loads(b.read_text())))
            else:
                out.append([name, "differs (not JSON)"] + [""] * (len(HEADER) - 2))
    return out


HEADER = ["file", "statuses", "summaries", "columns", "largest g/ln_det_beta move", "worst before", "worst after", "exit"]


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: corpus_moves.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    found = rows(Path(argv[0]), Path(argv[1]))
    print(f"{len(found)} corpus files differ")
    if found:
        print()
        for r in [HEADER, ["---"] * len(HEADER), *found]:
            print("| " + " | ".join(r) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
