"""The benchmark's tracer wraps momex attributes by name: every one it
names must still exist, or `perfbench/run.py --trace 1` and `--self-test`
fail on their first getattr."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr", sorted(tracing.SPANS), ids=[".".join(key) for key in sorted(tracing.SPANS)]
)
def test_traced_span_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"momex.{module}"), attr))


@pytest.mark.parametrize("attr", tracing.PROBLEM_FACTORIES)
def test_traced_problem_factory_resolves(attr):
    assert callable(getattr(importlib.import_module("momex.harness"), attr))
