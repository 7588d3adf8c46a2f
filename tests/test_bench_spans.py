"""The benchmark tracer's targets name functions that exist.

bench/spans.py skips a traced name that no longer exists, so a renamed or
deleted function would lose its span without a word.  This reads the
target table (without importing bench/ as a package or writing a bytecode
cache there) and resolves every entry in the package.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# spans whose functions are gone (PolyMatrix.evaluate_many,
# toda.residual_stencil, wirtinger.d_plus_d_minus); the bench upkeep drops
# them from the table
STALE = {"poly.evaluate_many", "toda.residual_stencil", "wirtinger.d_plus_d_minus"}


def _targets():
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module.TARGETS


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(f"todaframes.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


TARGETS = _targets()


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr, span):
    found = _resolve(module_name, attr)
    if span in STALE:
        assert found is None, f"{span} exists again: drop it from STALE"
    else:
        assert callable(found), f"{span} traces todaframes.{module_name}.{attr}, which is gone"


def test_every_stale_span_is_a_target():
    assert STALE <= {span for _, _, span in TARGETS}
