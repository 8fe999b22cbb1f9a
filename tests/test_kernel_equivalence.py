"""Every method is one step kernel fed by a parameter stream; these tests
hold mem and the baselines to their textbook recursions, written out
literally here, and pin how far mem(p=3) drifts from the literal order-3
schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sch
import momex.verify as ver

BUDGET = 25


def _strip_timing(records):
    return [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in records
    ]


def _literal_run(problem, noise, x0, seed, update, budget=BUDGET, q=1):
    """Records of a literal recursion with q oracle calls per iteration,
    logged the way run logs them.

    update(k, x_prev, x, m, g) -> (x_next, m_next), where g(z) is the
    oracle on iteration k's noise draw.
    """
    x_prev = x = np.asarray(x0, dtype=float)
    m = np.zeros_like(x)
    f0 = problem.value(x)

    def row(k, x, m, calls):
        g = problem.gradient(x)
        f = problem.value(x)
        rel = f / f0 if f0 != 0.0 else math.nan  # run's rel_obj at a zero start
        return (k, float(f), float(rel), float(np.linalg.norm(g)),
                float(np.linalg.norm(m - g)), calls)

    rows = []
    for k in range(budget):
        xi = prob.draw_sample(noise, problem.dim, seed, k)
        g = lambda z: prob.stochastic_grad(problem, noise, z, xi)
        x_next, m = update(k, x_prev, x, m, g)
        rows.append(row(k, x, m, (k + 1) * q))
        x_prev, x = x, x_next
    rows.append(row(budget, x, m, budget * q))
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
    # NaN (rel_obj from a zero objective) equals NaN; every other value must match exactly
    assert np.array_equal(_strip_timing(result.records), rows, equal_nan=True)
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


def _mem_update(p):
    """mem's recursion written out: iteration k extrapolates and weighs with
    the previous iteration's bundle (the warm-up bundle gamma = 1,
    theta = 1/q at k = 0) and steps with its own eta."""
    q = p - 1
    carried = [[1.0] * q, [1.0 / q] * q]

    def update(k, x_prev, x, m, g):
        gammas, thetas = carried
        m = (1.0 - math.fsum(thetas)) * m
        for gamma, theta in zip(gammas, thetas):
            m = m + theta * g(x + ((1.0 - gamma) / gamma) * (x - x_prev))
        bundle = sch.params_general(k, p)
        carried[:] = bundle.gammas[0].tolist(), bundle.thetas[0].tolist()
        return _normalized(x, m, bundle.eta[0]), m

    return update


@pytest.mark.parametrize("p", [3, 4])
@pytest.mark.parametrize("name", ["datafit", "quadratic"])
def test_mem_is_the_extrapolated_momentum_recursion(name, p):
    """Across three loop blocks, every seed of a run_batch stack is the
    literal recursion; from the quadratic's minimizer every step of every
    seed has a zero direction and stays put."""
    problem, noise = _setup(name, 6, "elementwise-gaussian-envelope", 2.0)
    x0 = np.zeros(problem.dim) if name == "quadratic" else np.ones(problem.dim)
    seeds, budget = [0, 1, 2], 600
    (results,) = opt.run_batch([opt.mem(sch.ScheduleConfig(p=p, q=p - 1))], problem, noise, x0,
                               [budget], seeds, [1])
    for seed, result in zip(seeds, results):
        literal = _literal_run(problem, noise, x0, seed, _mem_update(p), budget, q=p - 1)
        _assert_same(result, literal)
        assert result.state.zero_steps == (budget if name == "quadratic" else 0)


@pytest.mark.parametrize("p", [3, 4])
def test_mem_step_on_a_stack_is_the_recursion_row_by_row(p):
    """A stacked state whose first row sits at the minimizer (a zero
    direction at every step) steps each row as the literal recursion does."""
    problem, noise = _setup("quadratic", 5, "elementwise-gaussian-envelope", 1.5)
    x0 = np.array([np.zeros(5), np.linspace(-1.0, 1.0, 5), np.full(5, 0.3)])
    seeds, budget = (4, 5, 6), 600
    kind = opt.mem(sch.ScheduleConfig(p=p, q=p - 1))
    oracle = lambda z, xi: prob.stochastic_grad(problem, noise, z, xi)
    state = opt.initial_state(x0, kind.q)
    for k in range(budget):
        xi = np.array([prob.draw_sample(noise, 5, s, k) for s in seeds])
        state = opt.mem_step(state, sch.params_general(k, p), oracle, xi)
    for i, seed in enumerate(seeds):
        _, x, m = _literal_run(problem, noise, x0[i], seed, _mem_update(p), budget, q=p - 1)
        assert np.array_equal(state.x_cur[i], x) and np.array_equal(state.m[i], m)
    assert list(state.zero_steps) == [budget, 0, 0]


def test_mem_p3_tracks_the_literal_order3_schedule():
    """The order-p closed form at p = 3 and the literal order-3 fractions
    differ by a few ulp per bundle; over a noisy run the final relative
    objective may move by at most 1e-12, relative."""
    problem = prob.datafit_problem(prob.generate_synthetic(50, seed=0))
    noise = prob.NoiseModel("scalar-gaussian-envelope", 10.0)
    def p3_block(k0, k1):  # params_p3's one-row blocks stacked
        rows = [ver.params_p3(k) for k in range(k0, k1)]
        return sch.ParamsBlock(k0, *(np.concatenate([getattr(b, c) for b in rows])
                                     for c in ("eta", "gammas", "thetas")))

    literal = opt.AlgorithmKind("mem", 2, p3_block)
    general = opt.mem(sch.ScheduleConfig(p=3, q=2))
    for seed in (0, 1):
        a = opt.run(general, problem, noise, np.ones(50), 3000, seed, log_stride=1000)
        b = opt.run(literal, problem, noise, np.ones(50), 3000, seed, log_stride=1000)
        ra, rb = a.records[-1].rel_obj, b.records[-1].rel_obj
        assert abs(ra - rb) <= 1e-12 * abs(rb), f"seed {seed}: {ra!r} vs {rb!r}"

