"""tools/inprocess_pairs.py: two checkouts' CLI passes in one process."""

from __future__ import annotations

import importlib.util
import sys
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "inprocess_pairs.py"
spec = importlib.util.spec_from_file_location("inprocess_pairs", TOOL)
inprocess_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inprocess_pairs)

# a stub package: each job call records itself and advances the shared
# clock by the side's next cost, or returns the side's next exit code
STUB_CLI = """
import stub_clock

def main(argv):
    stub_clock.calls.append((SIDE, argv[0]))
    stub_clock.now += stub_clock.costs[SIDE].pop(0)
    codes = stub_clock.codes.get(SIDE)
    return codes.pop(0) if codes else 0
"""

STUB_CORPUS = """
def make_jobs(workload, seed, size="full"):
    if workload != "w":
        raise ValueError(f"unknown workload {workload!r}")
    return [{"mode": "toda-solve", "seed": seed}, {"mode": "verify-toda", "seed": seed}]
"""


def checkout(root: Path, side: str) -> Path:
    package = root / "src" / "todaframes"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"SIDE = {side!r}\n" + STUB_CLI)
    (root / "bench").mkdir()
    (root / "bench" / "corpus.py").write_text(STUB_CORPUS)
    return root


@pytest.fixture
def clock(monkeypatch):
    stub = types.ModuleType("stub_clock")
    stub.now, stub.calls, stub.costs, stub.codes = 0.0, [], {}, {}
    monkeypatch.setitem(sys.modules, "stub_clock", stub)
    return stub


def test_sides_alternate_and_the_table_counts_wins(tmp_path, clock, capsys):
    parent, change = checkout(tmp_path / "parent", "parent"), checkout(tmp_path / "change", "change")
    # a warm-up pass of each side, then four pairs; two jobs a pass
    clock.costs["parent"] = [1.0] * 2 + [0.002] * 8
    clock.costs["change"] = [1.0] * 2 + [0.001, 0.001, 0.003, 0.003, 0.001, 0.001, 0.0015, 0.0015]
    argv = [str(parent), str(change), "--workload", "w", "--seed", "3", "--passes", "4"]
    assert inprocess_pairs.main(argv, clock=lambda: clock.now) == 0
    sides = [side for side, _ in clock.calls[::2]]
    assert sides == ["parent", "change", "parent", "change", "change", "parent", "parent", "change", "change", "parent"]
    assert [mode for _, mode in clock.calls[:2]] == ["toda-solve", "verify-toda"]
    out = capsys.readouterr().out
    assert "| parent | 4 | 4 | 4 .. 4 |" in out
    assert "| change | 2 | 2.5 | 2 .. 3.75 |" in out
    assert "change won 3 of 4 pairs; median change / parent 0.6250" in out


def test_a_failed_job_stops_the_comparison(tmp_path, clock, capsys):
    parent, change = checkout(tmp_path / "parent", "parent"), checkout(tmp_path / "change", "change")
    clock.costs = {"parent": [0.001] * 10, "change": [0.001] * 10}
    clock.codes = {"parent": [0, 1, 0, 0], "change": [0, 0, 2]}  # 1 is a job whose points fail
    argv = [str(parent), str(change), "--workload", "w", "--passes", "2"]
    assert inprocess_pairs.main(argv, clock=lambda: clock.now) == 1
    captured = capsys.readouterr()
    assert "the change job job-00.json (toda-solve) ended with 2" in captured.err
    assert captured.out == ""


def test_bad_arguments_exit_2(tmp_path, clock):
    parent = checkout(tmp_path / "parent", "parent")
    for argv in (
        [str(parent), str(tmp_path / "missing"), "--workload", "w", "--passes", "1"],
        [str(parent), str(parent), "--workload", "w", "--passes", "0"],
        [str(parent), str(parent), "--workload", "nope", "--passes", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            inprocess_pairs.main(argv)
        assert exc.value.code == 2
