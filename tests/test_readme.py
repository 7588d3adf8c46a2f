"""The README's examples and API lists stay in step with the package.

The Python session block is run as written, and the lists of top-level
and section config keys are compared with the keys the CLI accepts.
"""

from __future__ import annotations

import re
from pathlib import Path

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


def test_top_level_config_keys_match_the_cli():
    match = re.search(r"Top-level keys: (.*?)\. Unknown keys are rejected", README, re.S)
    assert match is not None
    assert set(re.findall(r"`(\w+)`", match.group(1))) == cli._TOP_KEYS


def test_section_config_keys_match_the_cli():
    rows = re.findall(r"^\| `(\w+)` \| (`.*?) \|$", README, re.M)
    listed = {name: tuple(re.findall(r"`(\w+)`", keys)) for name, keys in rows}
    assert listed == cli._SECTION_KEYS
