"""The README's examples and API lists stay in step with the package.

The Python session block and the CLI's JSON job are run as written, the
CLI's usage line is compared with the options its parser prints, the
table of the top-level keys each mode reads and the list of section keys
are compared with the keys the CLI accepts, and every name the Library
table lists must exist in its module.
"""

from __future__ import annotations

import builtins
import dataclasses
import importlib
import inspect
import itertools
import re
from pathlib import Path

import pytest

import todaframes
from todaframes import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_session_runs_with_small_residuals(monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    seen = []
    original = todaframes.toda_residual

    def recording(*args):
        out = original(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(todaframes, "toda_residual", recording)
    exec(compile(block, "README.md", "exec"), {})
    assert seen
    assert max(seen) < 1e-12


def test_cli_job_runs_in_both_toda_modes(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README, re.S)
    job = tmp_path / "job.json"
    job.write_text(block)
    for mode in ("toda-solve", "verify-toda"):
        assert cli.main([mode, "--config", str(job), "--out", str(tmp_path / "report.json")]) == 0


def test_cli_usage_line_matches_the_parser(capsys):
    (line,) = re.findall(r"^todaframes <mode> --config .*$", README, re.M)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    parsed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[a-z][\w-]*", line)) == parsed


def test_top_level_config_keys_match_the_cli():
    # the per-mode table: a column per group of modes, a row per key; a
    # mode reads a key whose cell is not empty, and requires it when the
    # cell says so
    start = README.index("\n| key |") + 1
    header, _, *rows = itertools.takewhile(lambda line: line.startswith("|"), README[start:].splitlines())
    groups = [re.findall(r"`([\w-]+)`", cell) for cell in _cells(header)[1:]]
    reads = {mode: set() for group in groups for mode in group}
    required = {mode: set() for mode in reads}
    for row in rows:
        key, *cells = _cells(row)
        for group, cell in zip(groups, cells, strict=True):
            for mode in group:
                if cell:
                    reads[mode].add(key.strip("`"))
                if cell.startswith("required"):
                    required[mode].add(key.strip("`"))
    assert set(reads) == set(cli.MODES)
    assert reads == {mode: set(keys) for mode, keys in cli._MODE_KEYS.items()}
    assert required == {mode: {p.partition(".")[0] for p in paths} for mode, paths in cli._REQUIRED.items()}


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def test_section_config_keys_match_the_cli():
    rows = re.findall(r"^\| `(\w+)` \| (`.*?) \|$", README, re.M)
    listed = {name: tuple(re.findall(r"`(\w+)`", keys)) for name, keys in rows}
    assert listed == cli._SECTION_KEYS


def _resolves(module, name: str) -> bool:
    """name is a (dotted) attribute of the module, an attribute or dataclass
    field of one of its classes, or a builtin."""
    head, *rest = name.split(".")
    owners = [module, builtins]
    if not rest:
        for cls in vars(module).values():
            if inspect.isclass(cls):
                owners.append(cls)
                if dataclasses.is_dataclass(cls):
                    owners.append({f.name: f for f in dataclasses.fields(cls)})
    for owner in owners:
        obj = owner.get(head) if isinstance(owner, dict) else getattr(owner, head, None)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_library_table_names_exist():
    rows = re.findall(r"^\| `(todaframes\.\w+)` \| (.*) \|$", README, re.M)
    assert rows
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]*)`", contents):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span) and not _resolves(module, span):
                missing.append(f"{module_name}: {span}")
    assert not missing, missing
