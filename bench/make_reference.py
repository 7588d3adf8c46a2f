"""Write the reference reports that run.py checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference.  Every seed is checked against the seed 0 reference (see
corpus.py), so one pass per workload and size suffices.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ.pop("TODAFRAMES_THREADS", None)

from check import extract  # noqa: E402
from corpus import SIZES, WORKLOADS, make_jobs  # noqa: E402
from todaframes import cli  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS:
            for size in SIZES:
                refs = []
                for job in make_jobs(workload, 0, size):
                    cfg, out = Path(tmp, "job.json"), Path(tmp, "job.out")
                    cfg.write_text(json.dumps(job), encoding="utf-8")
                    code = cli.main([job["mode"], "--config", str(cfg), "--out", str(out)])
                    if code not in (0, 1):
                        print(f"{workload} {size}: exit {code}", file=sys.stderr)
                        return 1
                    refs.append(extract(json.loads(out.read_text(encoding="utf-8"))))
                path = OUT / f"{workload}-{size}.json"
                doc = {"workload": workload, "size": size, "seed": 0, "jobs": refs}
                path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                print(f"wrote {path.name}: {len(refs)} jobs, {sum(len(r['points']) for r in refs)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
