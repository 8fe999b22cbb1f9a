"""Every method is mem_step fed by a parameter stream; these tests hold the
baselines to their textbook recursions, written out literally here, and
pin how far mem(p=3) drifts from the literal order-3 schedule."""

import importlib
import importlib.util
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sch

BUDGET = 25


def _strip_timing(records):
    return [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in records
    ]


def _literal_run(problem, noise, x0, seed, update):
    """Records of a literal recursion, logged the way run logs them.

    update(k, x_prev, x, m, g) -> (x_next, m_next), where g(z) is the
    oracle on iteration k's noise draw.
    """
    x_prev = x = np.asarray(x0, dtype=float)
    m = np.zeros_like(x)
    f0 = problem.value(x)

    def row(k, x, m, calls):
        g = problem.gradient(x)
        f = problem.value(x)
        return (k, float(f), float(f / f0), float(np.linalg.norm(g)),
                float(np.linalg.norm(m - g)), calls)

    rows = []
    for k in range(BUDGET):
        sample = prob.draw_sample(noise, problem.dim, seed, k)
        g = lambda z: prob.stochastic_grad(problem, noise, z, sample)
        x_next, m = update(k, x_prev, x, m, g)
        rows.append(row(k, x, m, k + 1))
        x_prev, x = x, x_next
    rows.append(row(BUDGET, x, m, BUDGET))
    return rows, x, m


def _normalized(x, m, eta):
    nm = np.linalg.norm(m)
    return x if nm == 0.0 else x - (eta / nm) * m


problems = st.sampled_from(["datafit", "robust", "quadratic"])
noises = st.sampled_from(["scalar-gaussian-envelope", "elementwise-gaussian-envelope"])


def _setup(name, n, kind, sigma):
    if name == "quadratic":
        problem = prob.quadratic_problem(n, conditioning=4.0)
    else:
        data = prob.generate_synthetic(n, seed=n)
        make = prob.datafit_problem if name == "datafit" else prob.robust_problem
        problem = make(data)
    return problem, prob.NoiseModel(kind, sigma)


def _assert_same(result, literal):
    rows, x, m = literal
    assert _strip_timing(result.records) == rows
    assert np.array_equal(result.state.x_cur, x)
    assert np.array_equal(result.state.m, m)


@settings(max_examples=25, deadline=None)
@given(problems, noises, st.integers(3, 8), st.floats(0.1, 5.0),
       st.floats(1e-3, 0.05), st.integers(0, 2**20))
def test_sg_is_the_plain_gradient_recursion(name, noise_kind, n, sigma, eta, seed):
    problem, noise = _setup(name, n, noise_kind, sigma)
    x0 = np.ones(problem.dim)

    def update(k, x_prev, x, m, g):
        gx = g(x)
        return x - eta * gx, gx

    result = opt.run(opt.sg(lambda k: eta), problem, noise, x0, BUDGET, seed)
    _assert_same(result, _literal_run(problem, noise, x0, seed, update))


@settings(max_examples=25, deadline=None)
@given(problems, noises, st.integers(3, 8), st.floats(0.1, 5.0),
       st.floats(0.01, 1.0), st.floats(1e-3, 0.1), st.integers(0, 2**20))
def test_sg_pm_is_normalized_polyak_momentum(name, noise_kind, n, sigma, gamma, eta, seed):
    problem, noise = _setup(name, n, noise_kind, sigma)
    x0 = np.ones(problem.dim)

    def update(k, x_prev, x, m, g):
        theta_prev = 1.0 if k == 0 else gamma  # the first update is m = g
        m = (1.0 - theta_prev) * m + theta_prev * g(x)
        return _normalized(x, m, eta), m

    kind = opt.sg_pm(lambda k: gamma, lambda k: eta)
    result = opt.run(kind, problem, noise, x0, BUDGET, seed)
    _assert_same(result, _literal_run(problem, noise, x0, seed, update))


@settings(max_examples=25, deadline=None)
@given(problems, noises, st.integers(3, 8), st.floats(0.1, 5.0),
       st.floats(0.01, 0.99), st.floats(1e-3, 0.1), st.integers(0, 2**20))
def test_nigt_is_implicit_gradient_transport(name, noise_kind, n, sigma, gamma, eta, seed):
    problem, noise = _setup(name, n, noise_kind, sigma)
    x0 = np.ones(problem.dim)

    def update(k, x_prev, x, m, g):
        if k == 0:  # no displacement yet, and the first update is m = g
            m = g(x)
        else:
            z = x + ((1.0 - gamma) / gamma) * (x - x_prev)
            m = (1.0 - gamma) * m + gamma * g(z)
        return _normalized(x, m, eta), m

    result = opt.run(opt.nigt(gamma, eta), problem, noise, x0, BUDGET, seed)
    _assert_same(result, _literal_run(problem, noise, x0, seed, update))


def test_mem_p3_tracks_the_literal_order3_schedule():
    """The order-p closed form at p = 3 and the literal order-3 fractions
    differ by a few ulp per bundle; over a noisy run the final relative
    objective may move by at most 1e-12, relative."""
    problem = prob.datafit_problem(prob.generate_synthetic(50, seed=0))
    noise = prob.NoiseModel("scalar-gaussian-envelope", 10.0)
    literal = opt.AlgorithmKind(name="mem", q=2, params=sch.params_p3)
    general = opt.mem(sch.ScheduleConfig(p=3, q=2))
    for seed in (0, 1):
        a = opt.run(general, problem, noise, np.ones(50), 3000, seed, log_stride=1000)
        b = opt.run(literal, problem, noise, np.ones(50), 3000, seed, log_stride=1000)
        ra, rb = a.records[-1].rel_obj, b.records[-1].rel_obj
        assert abs(ra - rb) <= 1e-12 * abs(rb), f"seed {seed}: {ra!r} vs {rb!r}"


def test_traced_names_resolve():
    """The benchmark's tracer wraps momex attributes by name; each must
    exist, or traced benchmark runs fail where this test would."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"momex.{module}.{attr}"
        for module, attr in tracing.SPANS
        if not callable(getattr(importlib.import_module(f"momex.{module}"), attr, None))
    ]
    harness = importlib.import_module("momex.harness")
    missing += [
        f"momex.harness.{attr}"
        for attr in tracing.PROBLEM_FACTORIES
        if not callable(getattr(harness, attr, None))
    ]
    assert not missing, f"traced names missing: {missing}"
