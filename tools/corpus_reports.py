"""Write the report of every benchmark corpus job, for byte-for-byte diffs.

    PYTHONPATH=src python tools/corpus_reports.py OUTDIR

Runs every job of ``bench/corpus.py`` at seeds 0 and 3, full and tiny,
plus the toda-general jobs in ``verify-toda`` mode, through ``cli.run``,
and writes each report as sorted, indented JSON without ``generated_at``,
one file per job (46 in all).  Two checkouts give the same reports
exactly when ``diff -r`` of their two output directories is empty.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import SIZES, WORKLOADS, make_jobs  # noqa: E402

from todaframes.cli import run  # noqa: E402

SEEDS = (0, 3)


def corpus_jobs():
    """(name, job) for every report, in a fixed order."""
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
    for name, job in corpus_jobs():
        report = run(job).to_dict()
        del report["generated_at"]
        (out / f"{name}.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        count += 1
    print(f"wrote {count} reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
