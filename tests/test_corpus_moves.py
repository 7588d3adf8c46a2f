"""tools/corpus_moves.py: the summary of two directories of corpus reports."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

from todaframes.cli import emit, run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus_moves.py"
spec = importlib.util.spec_from_file_location("corpus_moves", TOOL)
corpus_moves = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_moves)

JOB = {
    "mode": "toda-solve",
    "gradation": {"sizes": [1, 1]},
    "grid": {"radius": 0.5, "nx": 2, "ny": 1},
    "seeds": {"gamma_minus": [[[1], [0]], [[0], [1]]], "c_minus": [[[0], [0]], [[1], [0]]]},
}


def write(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_rows_name_what_moved(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    report = json.loads(emit(dataclasses.replace(run(JOB), generated_at="")))
    for d in (old, new):
        write(d / "same.json", report)
    write(old / "moved.json", report)
    moved = json.loads(json.dumps(report))
    first, second = moved["points"]
    first["values"]["g_0"] *= 1 + 1e-15
    first["residuals"]["transport"] = 2e-16
    second["residuals"]["toda_0"] = 0.5
    write(new / "moved.json", moved)
    failed = json.loads(json.dumps(report))
    failed["points"][1].update(status="failed: integration: x", residuals={}, values={})
    failed["summary"]["points_ok"] = 1
    write(old / "failed.json", report)
    write(new / "failed.json", failed)
    (old / "table.csv").write_text("a\n")
    (new / "table.csv").write_text("b\n")
    (new / "extra.json").write_text("{}")

    rows = {r[0]: r[1:] for r in corpus_moves.rows(old, new)}
    assert set(rows) == {"moved.json", "failed.json", "table.csv", "extra.json"}
    assert rows["moved.json"][:3] == ["equal", "equal", "differ (+transport)"]
    assert float(rows["moved.json"][3]) > 0
    assert float(rows["moved.json"][5]) == 0.5
    assert rows["moved.json"][6] == "0→1"  # toda_0 = 0.5 is beyond residual_tol
    assert rows["failed.json"][:3] == ["differ", "differ", "differ"]
    assert rows["failed.json"][3] == "0"  # the point ok on both sides kept its values
    assert rows["failed.json"][6] == "0→1"
    assert {r[0]: r[-1] for r in corpus_moves.rows(new, old)}["moved.json"] == "1→0"
    assert rows["table.csv"][0] == "differs (not JSON)"
    assert rows["extra.json"][0] == "only in NEW"

    assert corpus_moves.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 corpus files differ\n") and "| moved.json | equal |" in out
    assert corpus_moves.main([str(old)]) == 2


def test_exit_is_equal_when_only_values_move(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    report = json.loads(emit(dataclasses.replace(run(JOB), generated_at="")))
    write(old / "r.json", report)
    report["points"][0]["values"]["g_0"] += 1e-12
    report["points"][0]["residuals"]["toda_0"] = 1e-6  # within residual_tol
    write(new / "r.json", report)
    [row] = corpus_moves.rows(old, new)
    assert row[-1] == "equal"
