"""Smoke test of tools/parity.py, the bit-for-bit check between two trees:
its matrix matches itself in one tree, and a one-ulp change is reported."""

import importlib.util
import pathlib

import numpy as np

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("parity", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_matrix_matches_itself(tmp_path):
    parity = _parity()
    a, b = parity.collect(str(tmp_path)), parity.collect(str(tmp_path))
    assert len(a) > 90
    assert parity.first_difference(a, b) is None


def test_one_ulp_change_is_reported(monkeypatch):
    parity = _parity()
    m = parity.modules()
    before = parity.mem_step_section(m)
    real = m.problems.stochastic_grad

    def nudged(problem, noise, x, xi):  # every gradient one ulp larger in x[..., 0]
        g = real(problem, noise, x, xi).copy()
        g[..., 0] = np.nextafter(g[..., 0], np.inf)
        return g

    monkeypatch.setattr(m.problems, "stochastic_grad", nudged)
    diff = parity.first_difference(before, parity.mem_step_section(m))
    assert diff is not None and diff.startswith("mem_step stack k=0: repr differs"), diff
    n = len(before)
    assert parity.first_difference(before, before[:-1]) == f"{n} entries vs {n - 1}"
