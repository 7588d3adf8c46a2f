"""tools/bench_pairs.py: alternating runs of two checkouts, and their table."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root: Path) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    declared = {"end_to_end": [{"name": "job_s", "better": "lower"}, {"name": "accuracy_digits", "better": "higher"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(declared))
    return root


class StubRunner:
    """Answers each run with fixed metrics per side and records the order."""

    def __init__(self, parent: Path, values: dict):
        self.parent, self.values, self.calls = parent, values, []

    def __call__(self, root, args):
        side = "parent" if root == self.parent else "change"
        self.calls.append((side, args))
        job_s, digits = self.values[side][len([c for c in self.calls if c[0] == side]) - 1]
        metrics = {"job_s": {"value": job_s, "unit": "s"}, "accuracy_digits": {"value": digits, "unit": "digits"}}
        out = "# header\n" + json.dumps({"correct": side == "parent" or job_s > 0, "metrics": metrics}) + "\n"
        return subprocess.CompletedProcess([], 0, out, "")


def test_sides_alternate_and_the_table_counts_wins(tmp_path, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    stub = StubRunner(
        parent,
        {
            "parent": [(0.010, 14.7), (0.012, 14.7), (0.011, 14.7), (0.009, 14.7)],
            "change": [(0.008, 14.9), (0.013, 14.6), (0.009, 14.9), (0.0, 14.9)],
        },
    )
    argv = [str(parent), str(change), "--workload", "toda-general", "--pairs", "4", "--seconds", "30", "--seed", "7"]
    assert bench_pairs.main(argv, runner=stub) == 0
    # the side that runs first switches on every pair
    assert [side for side, _ in stub.calls] == ["parent", "change", "change", "parent"] * 2
    assert {tuple(args) for _, args in stub.calls} == {
        ("--workload", "toda-general", "--seed", "7", "--seconds", "30", "--trace", "0")
    }
    out = capsys.readouterr().out
    assert "## job_s (s)" in out and "## accuracy_digits (digits)" in out
    assert "| 1 | change | 0.012 | 0.013 | 1.0833 |" in out
    # job_s: lower is better, won on pairs 0, 2 and 3; digits: higher, won on 0, 2, 3
    assert "| job_s | 0.0105 | 0.00975 .. 0.01125 | 0.0085 | 0.006 .. 0.01 | 3 of 4 |" in out
    assert "| accuracy_digits | 14.7 | 14.7 .. 14.7 | 14.9 | 14.825 .. 14.9 | 3 of 4 |" in out
    assert out.rstrip().endswith("pair 3: the change run reports correct false")


def test_a_failed_run_stops_with_its_stderr(tmp_path, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")

    def failing(root, args):
        if root == change:
            return subprocess.CompletedProcess([], 2, "", "no reference\n")
        return subprocess.CompletedProcess([], 0, json.dumps({"correct": True, "metrics": {}}) + "\n", "")

    argv = [str(parent), str(change), "--workload", "w", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main(argv, runner=failing) == 1
    err = capsys.readouterr().err
    assert "no reference" in err and "pair 0: the change run exited with 2" in err


def test_bad_arguments_exit_2(tmp_path):
    parent = checkout(tmp_path / "parent")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(tmp_path / "missing"), "--workload", "w", "--pairs", "1", "--seconds", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(parent), "--workload", "w", "--pairs", "0", "--seconds", "1"])
    assert exc.value.code == 2
