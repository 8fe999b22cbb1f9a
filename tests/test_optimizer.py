import math

import numpy as np
import pytest

import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sched


def _datafit(n=10, seed=3):
    return prob.datafit_problem(prob.generate_synthetic(n, seed=seed))


def _oracle(problem, noise):
    return lambda x, sample: prob.stochastic_grad(problem, noise, x, sample)


# ---------------------------------------------------------------------------
# single-update algebra
# ---------------------------------------------------------------------------

def test_extrapolate():
    x = np.array([1.0, 2.0])
    xp = np.array([0.0, 0.0])
    np.testing.assert_array_equal(opt.extrapolate(x, xp, 1.0), x)
    np.testing.assert_array_equal(opt.extrapolate(x, xp, 0.5), 2.0 * x)
    with pytest.raises(ValueError):
        opt.extrapolate(x, xp, 0.0)
    with pytest.raises(ValueError):
        opt.extrapolate(x, xp, 1.0000001)


def test_momentum_update_forgets_history_when_weights_sum_to_one():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 1.0])
    a = opt.momentum_update(np.array([100.0, -100.0]), [0.5, 0.5], [g1, g2])
    b = opt.momentum_update(np.array([-7.0, 3.0]), [0.5, 0.5], [g1, g2])
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, np.array([0.5, 0.5]))


def test_momentum_update_mixes_previous_estimate():
    m = opt.momentum_update(np.array([1.0]), [0.25], [np.array([3.0])])
    assert m[0] == 0.75 * 1.0 + 0.25 * 3.0


def test_normalized_step_length_and_zero_guard():
    x = np.array([1.0, 1.0, 1.0])
    m = np.array([0.0, 2.0, 0.0])
    x1, zero = opt.normalized_step(x, m, eta=0.3)
    assert not zero
    assert math.isclose(np.linalg.norm(x1 - x), 0.3, rel_tol=1e-15)
    x2, zero = opt.normalized_step(x, np.zeros(3), eta=0.3)
    assert zero
    np.testing.assert_array_equal(x2, x)


def test_initial_state():
    x0 = np.array([2.0, -1.0])
    st = opt.initial_state(x0, q=2)
    np.testing.assert_array_equal(st.x_prev, x0)
    np.testing.assert_array_equal(st.m, np.zeros(2))
    assert st.k == 0
    assert st.carry.k == -1
    # warm-start carry makes every first extrapolation collapse onto x0
    for g in st.carry.gammas:
        np.testing.assert_array_equal(opt.extrapolate(st.x_cur, st.x_prev, g), x0)


# ---------------------------------------------------------------------------
# the multi-extrapolation step against a literal reimplementation
# ---------------------------------------------------------------------------

def test_mem_step_matches_literal_recursion():
    """Drive 50 iterations through mem_step and through a from-scratch
    transcription of the update rules; the trajectories must agree."""
    problem = _datafit(n=10, seed=3)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=3.0)
    cfg = sched.ScheduleConfig(p=3, q=2)
    oracle = _oracle(problem, noise)

    x0 = np.ones(10)
    state = opt.initial_state(x0, q=2)

    x_prev = x0.copy()
    x = x0.copy()
    m = np.zeros(10)
    carry_g = np.ones(2)
    carry_th = np.full(2, 0.5)

    for k in range(50):
        pars = sched.params_p3(k)
        sample = prob.draw_sample(noise, 10, run_seed=11, k=k)

        state = opt.mem_step(state, pars, oracle, sample)

        zs = [x + ((1.0 - g) / g) * (x - x_prev) for g in carry_g]
        grads = [prob.stochastic_grad(problem, noise, z, sample) for z in zs]
        m_new = (1.0 - math.fsum(carry_th)) * m
        for th, g in zip(carry_th, grads):
            m_new = m_new + th * g
        x_next = x - (pars.eta / np.linalg.norm(m_new)) * m_new
        x_prev, x, m = x, x_next, m_new
        carry_g, carry_th = pars.gammas, pars.thetas

        np.testing.assert_allclose(state.x_cur, x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(state.m, m, rtol=1e-12, atol=1e-15)

    assert state.oracle_calls == 100
    assert state.k == 50


def test_mem_step_identities_short_run():
    problem = _datafit(n=8, seed=1)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    cfg = sched.ScheduleConfig(p=3, q=2)
    oracle = _oracle(problem, noise)
    state = opt.initial_state(np.ones(8), q=2)
    xs = [state.x_cur]
    for k in range(30):
        pars = sched.params_for(cfg, k)
        sample = prob.draw_sample(noise, 8, run_seed=4, k=k)
        prev_x = state.x_cur
        state = opt.mem_step(state, pars, oracle, sample)
        xs.append(state.x_cur)
        step = np.linalg.norm(state.x_cur - prev_x)
        assert math.isclose(step, pars.eta, rel_tol=1e-12)
        # z at iteration k leans on the previous displacement through gamma:
        # z - x_{k-1} = (x_k - x_{k-1}) / gamma_{k-1,t}
        if k >= 1:
            prev_pars = sched.params_for(cfg, k - 1)
            for t, z in enumerate(state.zs):
                lhs = z - xs[-3]
                rhs = (xs[-2] - xs[-3]) / prev_pars.gammas[t]
                np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)


def test_mem_step_rejects_desynchronized_params():
    problem = _datafit(n=6, seed=0)
    noise = prob.NoiseModel()
    state = opt.initial_state(np.ones(6), q=2)
    sample = prob.draw_sample(noise, 6, 0, 5)
    with pytest.raises(ValueError):
        opt.mem_step(state, sched.params_p3(5), _oracle(problem, noise), sample)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_sg_step_algebra():
    problem = prob.quadratic_problem(2, conditioning=1.0)
    noise = prob.NoiseModel()
    state = opt.initial_state(np.array([1.0, 2.0]), q=1)
    sample = prob.draw_sample(noise, 2, 0, 0)
    kind = opt.sg(lambda k: 0.1)
    state = opt.mem_step(
        state, kind.params(0), _oracle(problem, noise), sample, kind.normalized
    )
    np.testing.assert_array_equal(state.m, np.array([1.0, 2.0]))  # m := g
    np.testing.assert_allclose(
        state.x_cur, np.array([1.0, 2.0]) - 0.1 * np.array([1.0, 2.0])
    )


def test_sgpm_step_algebra():
    problem = prob.quadratic_problem(2, conditioning=1.0)
    noise = prob.NoiseModel()
    x0 = np.array([1.0, 2.0])
    state = opt.initial_state(x0, q=1)
    sample = prob.draw_sample(noise, 2, 0, 0)
    kind = opt.sg_pm(lambda k: 0.5, lambda k: 0.1)
    # warm-start carry has theta = 1, so the first update is m = g
    state = opt.mem_step(state, kind.params(0), _oracle(problem, noise), sample)
    np.testing.assert_array_equal(state.m, x0)
    g2 = state.x_cur.copy()
    state = opt.mem_step(state, kind.params(1), _oracle(problem, noise), sample)
    np.testing.assert_allclose(state.m, 0.5 * x0 + 0.5 * g2, rtol=1e-15)


def test_nigt_matches_constant_mem():
    problem = _datafit(n=9, seed=6)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=5.0)
    x0 = np.ones(9)
    thetas = sched.solve_weights_closed_form([0.3])
    constant = opt.AlgorithmKind(
        name="mem",
        q=1,
        params=lambda k: sched.IterationParams(
            k=k, eta=0.05, gammas=[0.3], thetas=thetas, theta_sum=math.fsum(thetas)
        ),
    )
    a = opt.run(constant, problem, noise, x0, budget=100, seed=11)
    b = opt.run(opt.nigt(0.3, 0.05), problem, noise, x0, budget=100, seed=11)
    np.testing.assert_array_equal(a.state.x_cur, b.state.x_cur)
    np.testing.assert_array_equal(a.state.m, b.state.m)
    strip = lambda recs: [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in recs
    ]
    assert strip(a.records) == strip(b.records)


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_budget_zero_sentinel():
    problem = prob.quadratic_problem(3, conditioning=2.0)
    kind = opt.mem(sched.ScheduleConfig(p=3, q=2))
    res = opt.run(kind, problem, prob.NoiseModel(), np.ones(3), budget=0, seed=0)
    assert len(res.records) == 1
    rec = res.records[0]
    assert rec.k == 0
    assert rec.rel_obj == 1.0
    assert rec.oracle_calls == 0
    assert rec.mom_err == rec.grad_norm  # zero-momentum sentinel


def test_run_accounting_and_record_grid():
    problem = _datafit(n=8, seed=2)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=1.0)
    kind = opt.mem(sched.ScheduleConfig(p=4, q=3))
    res = opt.run(kind, problem, noise, np.ones(8), budget=50, seed=1, log_stride=7)
    ks = [r.k for r in res.records]
    assert ks == sorted(set(ks))
    assert ks[-1] == 50  # closing row
    assert 49 in ks  # last iteration always logged
    assert res.records[-1].oracle_calls == 150  # q per iteration, exactly
    assert res.records[0].rel_obj == 1.0


def test_run_is_reproducible():
    problem = _datafit(n=8, seed=2)
    noise = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=2.0)
    kind = opt.sg_pm()
    a = opt.run(kind, problem, noise, np.ones(8), budget=40, seed=9)
    b = opt.run(kind, problem, noise, np.ones(8), budget=40, seed=9)
    assert [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in a.records
    ] == [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in b.records
    ]
    np.testing.assert_array_equal(a.state.x_cur, b.state.x_cur)


def test_run_wall_ceiling_stops_early():
    problem = _datafit(n=8, seed=2)
    kind = opt.sg()
    res = opt.run(
        kind, problem, prob.NoiseModel(), np.ones(8), budget=10**7, seed=0,
        log_stride=1, wall_seconds=1e-4,
    )
    assert res.records[-1].k < 10**7


def test_zero_momentum_freezes_iterate():
    # starting at the exact minimizer with no noise, every direction is zero
    problem = prob.quadratic_problem(3, conditioning=2.0)
    kind = opt.mem(sched.ScheduleConfig(p=3, q=2))
    res = opt.run(kind, problem, prob.NoiseModel(), np.zeros(3), budget=5, seed=0)
    assert res.state.zero_steps == 5
    np.testing.assert_array_equal(res.state.x_cur, np.zeros(3))


def test_store_iterates_and_output_draw():
    problem = _datafit(n=6, seed=7)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=1.0)
    kind = opt.mem(sched.ScheduleConfig(p=2, q=1))
    res = opt.run(kind, problem, noise, np.ones(6), budget=12, seed=0,
                  store_iterates=True)
    assert len(res.iterates) == 13
    picks = {
        opt.select_output_iterate(res.iterates, np.random.default_rng(s)).tobytes()
        for s in range(40)
    }
    stored = {it.tobytes() for it in res.iterates[:-1]}
    assert picks <= stored  # never the closing iterate
    assert len(picks) > 1


def test_noise_free_descent_examples():
    problem = prob.quadratic_problem(5, conditioning=10.0)

    # plain stochastic gradient with a small constant step is monotone here
    kind = opt.sg(eta_rule=lambda k: 0.01)
    res = opt.run(kind, problem, prob.NoiseModel(), np.ones(5), budget=100, seed=0)
    vals = [r.f_val for r in res.records]
    assert all(b <= a for a, b in zip(vals, vals[1:]))

    # the extrapolated method is not monotone but ends far below the start
    kind = opt.mem(sched.ScheduleConfig(p=2, q=1))
    res = opt.run(kind, problem, prob.NoiseModel(), np.ones(5), budget=2000, seed=0)
    assert res.records[-1].rel_obj < 0.05


# ---------------------------------------------------------------------------
# stacked runs: every row bit for bit what it is alone
# ---------------------------------------------------------------------------

def _strip(records):
    return [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in records
    ]


def _same_state(a, b):
    for field in ("x_prev", "x_cur", "m"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert (a.k, a.oracle_calls, a.zero_steps) == (b.k, b.oracle_calls, b.zero_steps)
    assert len(a.zs) == len(b.zs)
    assert all(np.array_equal(za, zb) for za, zb in zip(a.zs, b.zs))


BATCH_KINDS = [
    opt.mem(sched.ScheduleConfig(p=2, q=1)),
    opt.mem(sched.ScheduleConfig(p=3, q=2)),
    opt.mem(sched.ScheduleConfig(p=4, q=3)),
    opt.sg(lambda k: 0.01),
    opt.sg_pm(),
    opt.nigt(0.3, 0.05),
]


@pytest.mark.parametrize("noise_kind", ["none", "scalar-gaussian-envelope",
                                        "elementwise-gaussian-envelope"])
@pytest.mark.parametrize("name", ["datafit", "robust", "quadratic"])
def test_run_batch_matches_single_runs(name, noise_kind):
    if name == "quadratic":
        problem = prob.quadratic_problem(7, conditioning=20.0)
    else:
        make = prob.datafit_problem if name == "datafit" else prob.robust_problem
        problem = make(prob.generate_synthetic(9, seed=2))
    noise = prob.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
    x0 = np.full(problem.dim, 0.6)
    seeds = [3, 4, 5, 6]
    budgets = [37, 40, 25, 40, 33, 40]
    strides = [1, 3, 7, 1, 2, 5]
    batches = opt.run_batch(BATCH_KINDS, problem, noise, x0, budgets, seeds, strides,
                            store_iterates=True)
    for kind, budget, stride, results in zip(BATCH_KINDS, budgets, strides, batches):
        assert len(results) == len(seeds)
        for seed, got in zip(seeds, results):
            alone = opt.run(kind, problem, noise, x0, budget, seed, log_stride=stride,
                            store_iterates=True)
            assert _strip(got.records) == _strip(alone.records)
            _same_state(got.state, alone.state)
            assert len(got.iterates) == budget + 1
            assert all(np.array_equal(a, b) for a, b in zip(got.iterates, alone.iterates))
            assert got.status == alone.status == "completed"


def test_mem_step_on_a_stack_matches_each_row():
    """A stacked state with a zero-momentum row (x at the minimizer, where
    the envelope vanishes too) steps every row as it steps alone."""
    problem = prob.quadratic_problem(5, conditioning=3.0)
    noise = prob.NoiseModel("elementwise-gaussian-envelope", 1.5)
    oracle = _oracle(problem, noise)
    kind = opt.mem(sched.ScheduleConfig(p=3, q=2))
    x0 = np.array([np.zeros(5), np.linspace(-1.0, 1.0, 5), np.full(5, 0.3)])
    stacked = opt.initial_state(x0, kind.q)
    rows = [opt.initial_state(x, kind.q) for x in x0]
    for k in range(6):
        draws = [prob.draw_sample(noise, 5, s, k) for s in range(3)]
        xi = np.array([d.xi for d in draws])
        stacked = opt.mem_step(stacked, kind.params(k), oracle, prob.Sample(xi, (0, 1, 2), k))
        rows = [opt.mem_step(st, kind.params(k), oracle, d) for st, d in zip(rows, draws)]
        for i, row in enumerate(rows):
            assert np.array_equal(stacked.x_cur[i], row.x_cur)
            assert np.array_equal(stacked.m[i], row.m)
    assert list(np.broadcast_to(stacked.zero_steps, 3)) == [6, 0, 0]
    assert [row.zero_steps for row in rows] == [6, 0, 0]


def test_run_status_reports_how_runs_end():
    problem = prob.quadratic_problem(5, conditioning=1000.0)
    diverging = opt.sg(lambda k: 1.0)
    res = opt.run(diverging, problem, prob.NoiseModel(), np.ones(5), 150, seed=0)
    # f reaches ~4.5e302 at k = 50; iteration 51's momentum overflows
    assert res.status == "non-finite at 51"
    assert math.isfinite(res.records[50].f_val)
    assert math.isnan(res.records[-1].f_val)
    assert len(res.records) == 151  # nothing is frozen or cut short
    assert opt.run(diverging, problem, prob.NoiseModel(), np.ones(5), 50, 0).status == "completed"

    slow = opt.run(opt.sg(), _datafit(), prob.NoiseModel(), np.ones(10), 10**7, seed=0,
                   wall_seconds=1e-4)
    assert slow.status == "wall-clock"
    assert slow.state.k < 10**7


def test_run_batch_rejects_bad_arguments():
    problem = prob.quadratic_problem(3)
    kind = opt.sg()
    with pytest.raises(ValueError, match="budget"):
        opt.run_batch([kind], problem, prob.NoiseModel(), np.ones(3), [-1], [0], [1])
    with pytest.raises(ValueError, match="log_stride"):
        opt.run_batch([kind], problem, prob.NoiseModel(), np.ones(3), [5], [0], [0])
    with pytest.raises(ValueError, match="seed"):
        opt.run_batch([kind], problem, prob.NoiseModel(), np.ones(3), [5], [], [1])
    with pytest.raises(ValueError, match="1 kinds, 2 budgets, 1 log strides"):
        opt.run_batch([kind], problem, prob.NoiseModel(), np.ones(3), [5, 6], [0], [1])
