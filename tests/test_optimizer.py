import dataclasses
import math
import warnings

import numpy as np
import pytest

import momex.harness as har
import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sched
import momex.verify as ver


def _datafit(n=10, seed=3):
    return prob.datafit_problem(prob.generate_synthetic(n, seed=seed))


def _oracle(problem, noise):
    return lambda x, xi: prob.stochastic_grad(problem, noise, x, xi)


def _block(k0, rows):
    """The ParamsBlock holding iterations k0 .. whose bundles are rows of
    (eta, gammas, thetas), written as its columns."""
    return sched.ParamsBlock(k0, *(np.array(c, dtype=float) for c in zip(*rows)))


def _per_k(row):
    """The block stream of a per-k rule row(k) -> (eta, gammas, thetas)."""
    return lambda k0, k1: _block(k0, map(row, range(k0, k1)))


def _carry(state):
    """A state's carry as its k and columns in Python floats: its repr
    tells every bit, -0.0 and NaN included."""
    c = state.carry
    return repr((c.k0, *(getattr(c, f).tolist() for f in ("eta", "gammas", "thetas"))))


# ---------------------------------------------------------------------------
# single-update algebra, one mem_step from a hand-built state
# ---------------------------------------------------------------------------

def _one_step(x_prev, x, m, gammas, thetas, grads=None, eta=0.3):
    """mem_step at k = 0 from a state whose carry holds gammas and thetas,
    with an oracle that records its stacked query points and returns grads
    (zeros when None). Returns the new state and the query points."""
    seen = []

    def oracle(z, xi):
        seen.append(z.copy())
        return np.zeros_like(z) if grads is None else np.array(grads, dtype=float)

    carry = _block(-1, [(math.nan, gammas, thetas)])
    state = opt.OptimizerState(np.array(x_prev, dtype=float), np.array(x, dtype=float),
                               np.array(m, dtype=float), 0, carry)
    q = len(gammas)
    params = _block(0, [(eta, (1.0,) * q, (1.0 / q,) * q)])
    return opt.mem_step(state, params, oracle, 0.0), seen[0]


def test_extrapolate():
    x, xp = [1.0, 2.0], [0.0, 0.0]
    _, z = _one_step(xp, x, [0.0, 0.0], [1.0], [1.0])
    np.testing.assert_array_equal(z[0], x)
    _, z = _one_step([-np.inf, np.nan], x, [0.0, 0.0], [1.0], [1.0])  # x_prev is not read
    np.testing.assert_array_equal(z[0], x)
    _, z = _one_step(xp, x, [0.0, 0.0], [0.5], [1.0])
    np.testing.assert_array_equal(z[0], 2.0 * np.array(x))
    for bad in (0.0, 1.0000001):
        message = rf"^bundle for k=-1: gamma must be in \(0, 1\], got {bad}$"
        with pytest.raises(ValueError, match=message):
            _one_step(xp, x, [0.0, 0.0], [bad], [1.0])


def test_momentum_update_forgets_history_when_weights_sum_to_one():
    grads = [[1.0, 0.0], [0.0, 1.0]]
    a, _ = _one_step([0.0, 0.0], [0.0, 0.0], [100.0, -100.0], [1.0, 1.0], [0.5, 0.5], grads)
    b, _ = _one_step([0.0, 0.0], [0.0, 0.0], [-7.0, 3.0], [1.0, 1.0], [0.5, 0.5], grads)
    np.testing.assert_array_equal(a.m, b.m)
    np.testing.assert_array_equal(a.m, np.array([0.5, 0.5]))
    # a momentum that is not finite is dropped too (0 * inf would give NaN)
    c, _ = _one_step([0.0, 0.0], [0.0, 0.0], [np.inf, np.nan], [1.0, 1.0], [0.5, 0.5], grads)
    np.testing.assert_array_equal(c.m, a.m)


def test_momentum_update_mixes_previous_estimate():
    st, _ = _one_step([0.0], [0.0], [1.0], [1.0], [0.25], [[3.0]])
    assert st.m[0] == 0.75 * 1.0 + 0.25 * 3.0


def test_normalized_step_length_and_zero_guard():
    x = np.array([1.0, 1.0, 1.0])
    st, _ = _one_step(x, x, np.zeros(3), [1.0], [1.0], [[0.0, 2.0, 0.0]], eta=0.3)
    assert st.zero_steps == 0
    assert math.isclose(np.linalg.norm(st.x_cur - x), 0.3, rel_tol=1e-15)
    st, _ = _one_step(x, x, np.zeros(3), [1.0], [1.0], eta=0.3)
    assert st.zero_steps == 1
    np.testing.assert_array_equal(st.x_cur, x)


def test_initial_state():
    x0 = np.array([2.0, -1.0])
    st = opt.initial_state(x0, q=2)
    np.testing.assert_array_equal(st.x_prev, x0)
    np.testing.assert_array_equal(st.m, np.zeros(2))
    assert st.k == 0
    assert st.carry.k0 == -1
    # warm-start carry makes every first extrapolation collapse onto x0
    seen = []
    oracle = lambda z, xi: seen.append(z.copy()) or np.ones_like(z)
    opt.mem_step(st, sched.params_general(0, 3), oracle, 0.0)
    assert len(seen[0]) == st.carry.gammas.shape[-1]
    for z in seen[0]:
        np.testing.assert_array_equal(z, x0)


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
        pars = ver.params_p3(k)
        xi = prob.draw_sample(noise, 10, run_seed=11, k=k)

        state = opt.mem_step(state, pars, oracle, xi)

        zs = [x + ((1.0 - g) / g) * (x - x_prev) for g in carry_g]
        grads = [prob.stochastic_grad(problem, noise, z, xi) for z in zs]
        m_new = (1.0 - math.fsum(carry_th)) * m
        for th, g in zip(carry_th, grads):
            m_new = m_new + th * g
        x_next = x - (pars.eta[0] / np.linalg.norm(m_new)) * m_new
        x_prev, x, m = x, x_next, m_new
        carry_g, carry_th = pars.gammas[0], pars.thetas[0]

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
        xi = prob.draw_sample(noise, 8, run_seed=4, k=k)
        prev_x = state.x_cur
        state = opt.mem_step(state, pars, oracle, xi)
        xs.append(state.x_cur)
        step = np.linalg.norm(state.x_cur - prev_x)
        assert math.isclose(step, pars.eta[0], rel_tol=1e-12)
        # z at iteration k leans on the previous displacement through gamma:
        # z - x_{k-1} = (x_k - x_{k-1}) / gamma_{k-1,t}
        if k >= 1:
            prev_pars = sched.params_for(cfg, k - 1)
            for t, z in enumerate(state.zs):
                lhs = z - xs[-3]
                rhs = (xs[-2] - xs[-3]) / prev_pars.gammas[0, t]
                np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)


def test_mem_step_rejects_desynchronized_params():
    problem = _datafit(n=6, seed=0)
    noise = prob.NoiseModel()
    state = opt.initial_state(np.ones(6), q=2)
    xi = prob.draw_sample(noise, 6, 0, 5)
    with pytest.raises(ValueError):
        opt.mem_step(state, ver.params_p3(5), _oracle(problem, noise), xi)
    with pytest.raises(ValueError, match=r"^x0 must be \(n,\) or \(S, n\), got shape \(1, 2, 6\)$"):
        opt.initial_state(np.ones((1, 2, 6)), q=2)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_sg_step_algebra():
    problem = prob.quadratic_problem(2, conditioning=1.0)
    noise = prob.NoiseModel()
    state = opt.initial_state(np.array([1.0, 2.0]), q=1)
    xi = prob.draw_sample(noise, 2, 0, 0)
    kind = opt.sg(lambda k: 0.1)
    state = opt.mem_step(
        state, kind.bundles(0, 1), _oracle(problem, noise), xi, kind.normalized
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
    xi = prob.draw_sample(noise, 2, 0, 0)
    kind = opt.sg_pm(lambda k: 0.5, lambda k: 0.1)
    # warm-start carry has theta = 1, so the first update is m = g
    state = opt.mem_step(state, kind.bundles(0, 1), _oracle(problem, noise), xi)
    np.testing.assert_array_equal(state.m, x0)
    g2 = state.x_cur.copy()
    state = opt.mem_step(state, kind.bundles(1, 2), _oracle(problem, noise), xi)
    np.testing.assert_allclose(state.m, 0.5 * x0 + 0.5 * g2, rtol=1e-15)


def test_nigt_matches_constant_mem():
    problem = _datafit(n=9, seed=6)
    noise = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=5.0)
    x0 = np.ones(9)
    thetas = sched.solve_weights_closed_form([0.3])
    constant = opt.AlgorithmKind(
        name="mem",
        q=1,
        bundles=_per_k(lambda k: (0.05, [0.3], thetas)),
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


def test_records_are_a_row_view_over_columns():
    # more rows than one chunk of iteration, so the chunked __iter__ crosses a boundary
    problem = prob.quadratic_problem(4, conditioning=10.0)
    kind = opt.mem(sched.ScheduleConfig(p=3, q=2))
    res = opt.run(kind, problem, prob.NoiseModel(), np.ones(4), budget=5000, seed=0)
    recs, cols = res.records, res.records.columns
    assert list(cols) == [f.name for f in dataclasses.fields(opt.TrajectoryRecord)]
    assert [c.dtype for c in cols.values()] == [np.int64, *[np.float64] * 4, np.int64, np.float64]
    rows = tuple(opt.TrajectoryRecord(*v) for v in zip(*(c.tolist() for c in cols.values())))
    assert len(recs) == len(rows) == res.metric_grad_evals == 5001
    assert recs[-1] == rows[-1] and recs[0] == rows[0] and recs[4097] == rows[4097]
    assert type(recs[-1].k) is int and type(recs[-1].f_val) is float
    for part in (slice(None), slice(10, 20), slice(-3, None), slice(None, None, -7), slice(5, 5)):
        got = recs[part]
        assert type(got) is tuple and got == rows[part]
    assert tuple(recs) == rows
    assert repr(recs) == repr(rows)
    assert repr(res).startswith("RunResult(records=" + repr(rows)[:200])
    with pytest.raises(IndexError):
        recs[len(rows)]


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
    with pytest.raises(ValueError, match=r"^need at least two stored iterates \(x\^0 and x\^1\)$"):
        opt.select_output_iterate(res.iterates[:1], np.random.default_rng(0))


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


def _alternating():
    """A custom q = 1 stream whose gamma alternates 1.0 / 0.5 and whose
    weight is 1.0 (m dropped) at every third k."""
    return opt.AlgorithmKind("alternating", 1, _per_k(lambda k: (
        0.05, (1.0 if k % 2 == 0 else 0.5,), (1.0 if k % 3 == 0 else 0.4,))))


def _same_as_alone(got, kind, problem, noise, x0, budget, seed, stride, **kw):
    """got is bit for bit the (kind, seed) run alone: records (elapsed
    masked), state with its carry and zs, iterates and status."""
    alone = opt.run(kind, problem, noise, x0, budget, seed, log_stride=stride, **kw)
    assert repr(_strip(got.records)) == repr(_strip(alone.records))  # nan rows compare too
    a, b = got.state, alone.state
    arrays = lambda st: [st.x_prev, st.x_cur, st.m, *st.zs]
    assert len(a.zs) == len(b.zs) and len(got.iterates) == len(alone.iterates)
    for u, v in zip(arrays(a) + list(got.iterates), arrays(b) + list(alone.iterates)):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()  # -0.0 and nan bits too
    assert (a.k, a.oracle_calls, a.zero_steps) == (b.k, b.oracle_calls, b.zero_steps)
    assert _carry(a) == _carry(b)
    assert got.status == alone.status


@pytest.mark.parametrize("noise_kind", ["none", "scalar-gaussian-envelope",
                                        "elementwise-gaussian-envelope"])
@pytest.mark.parametrize("name", ["datafit", "robust", "quadratic"])
def test_kinds_of_one_shape_stack_bit_for_bit(name, noise_kind):
    """mem p = 2, sg-pm, nigt and the alternating stream have q = 1, are
    normalized and share a budget, so they step as one (12, n) state across
    two loop blocks; every (kind, seed) is still its run alone."""
    if name == "quadratic":
        problem = prob.quadratic_problem(7, conditioning=20.0)
    else:
        make = prob.datafit_problem if name == "datafit" else prob.robust_problem
        problem = make(prob.generate_synthetic(9, seed=2))
    noise = prob.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
    x0 = np.full(problem.dim, 0.6)
    x0[1] = -0.0
    kinds = [opt.mem(sched.ScheduleConfig(p=2, q=1)), opt.sg_pm(), opt.nigt(0.3, 0.05),
             _alternating()]
    seeds, budget, strides = [3, 4, 5], 300, [7, 1, 13, 300]
    shapes = []
    real = opt._steps

    def steps(state, block, *args):  # block[0]: the members' etas behind their carry
        shapes.append((len(block[0]), len(args[1])))
        return real(state, block, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "_steps", steps)
        batches = opt.run_batch(kinds, problem, noise, x0, [budget] * 4, seeds, strides,
                                store_iterates=True)
    assert shapes == [(4, 256), (4, 44)]  # one kernel step per iteration for all four
    for kind, stride, results in zip(kinds, strides, batches):
        for seed, got in zip(seeds, results):
            _same_as_alone(got, kind, problem, noise, x0, budget, seed, stride,
                           store_iterates=True)
            assert got.status == "completed"


@pytest.mark.parametrize("make", [prob.datafit_problem, prob.robust_problem])
def test_wide_problems_stack_bit_for_bit(make):
    """At order 300 the oracle multiplies by A and A^T a row block at a time
    for all of a call's points (rows = 108, and 300 is not a multiple of
    it); mem p = 3 and p = 4 over two seeds step (q, 2, 300) stacks across
    two loop blocks of 54 steps, and every (kind, seed) is its run alone."""
    problem = make(prob.generate_synthetic(300, seed=4))
    noise = prob.NoiseModel("elementwise-gaussian-envelope", 2.0)
    x0 = np.full(300, 0.05)
    kinds = [opt.mem(sched.ScheduleConfig(p=p, q=p - 1)) for p in (3, 4)]
    seeds, budgets, strides = [0, 1], [70, 61], [1, 9]
    batches = opt.run_batch(kinds, problem, noise, x0, budgets, seeds, strides)
    for kind, budget, stride, results in zip(kinds, budgets, strides, batches):
        for seed, got in zip(seeds, results):
            _same_as_alone(got, kind, problem, noise, x0, budget, seed, stride)
            assert got.status == "completed"


def test_a_diverging_run_leaves_its_stacked_neighbour_alone():
    """Two unnormalized sg kinds of one budget step as one state. The one at
    eta = 1 on the kappa = 1000 quadratic overflows and says where; its
    neighbour's rows are its run alone. Beside an unnormalized momentum
    kind, each step drops m on the sg rows only: at k = 103 the overflowing
    row's m = g is -inf, where 0 * inf + g would make it nan. From the
    minimizer every row has a zero direction, and the normalized kinds
    count each such step."""
    problem = prob.quadratic_problem(5, conditioning=1000.0)
    heavy = opt.AlgorithmKind("heavy-ball", 1, opt.sg_pm(lambda k: 0.5, lambda k: 0.001).bundles,
                              normalized=False)
    for kinds, budget in (([opt.sg(lambda k: 1.0), opt.sg(lambda k: 0.01)], 150),
                          ([opt.sg(lambda k: 1.0), heavy], 104)):
        batches = opt.run_batch(kinds, problem, prob.NoiseModel(), np.ones(5), [budget] * 2,
                                [0, 1], [1, 1], store_iterates=True)
        for kind, results in zip(kinds, batches):
            for seed, got in enumerate(results):
                _same_as_alone(got, kind, problem, prob.NoiseModel(), np.ones(5), budget, seed,
                               1, store_iterates=True)
        assert [r.status for r in batches[0]] == ["non-finite at 51"] * 2
        assert [r.status for r in batches[1]] == ["completed"] * 2
    assert batches[0][0].state.m[-1] == -math.inf

    noise = prob.NoiseModel("scalar-gaussian-envelope", 1.0)
    kinds = [opt.sg(lambda k: 1.0), heavy, opt.sg(lambda k: 0.01), opt.sg_pm(),
             opt.nigt(0.3, 0.05), opt.mem(sched.ScheduleConfig(p=2, q=1))]
    batches = opt.run_batch(kinds, problem, noise, np.zeros(5), [40] * 6, [0, 1], [3] * 6)
    for kind, results in zip(kinds, batches):
        for seed, got in enumerate(results):
            _same_as_alone(got, kind, problem, noise, np.zeros(5), 40, seed, 3)
            assert not got.state.x_cur.any() and got.status == "completed"
            assert got.state.zero_steps == (40 if kind.normalized else 0)


def _signed_zero(sign):
    """A custom q = 1 stream at gamma = 1 whose weight is 1.5 at k = 0,
    sign * 0.0 at k = 1 and 0.5 after."""
    theta = lambda k: 1.5 if k == 0 else sign * 0.0 if k == 1 else 0.5
    return opt.AlgorithmKind(f"zero{sign:+.0f}", 1, _per_k(lambda k: (
        0.05, (1.0,), (theta(k),))))


def test_a_group_shares_a_coefficient_only_on_its_bits():
    """Two kinds of one group whose thetas differ only in the sign of a zero
    at k = 1. The gradient's second coordinate is -0.0 and the weight 1.5
    turns m's into -0.0, so the step that reads theta = +0.0 keeps -0.0
    there and the one that reads -0.0 makes it +0.0: a coefficient shared
    because -0.0 == 0.0 would give one kind the other's bits."""
    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], np.full(x.shape[:-1], -0.0)], axis=-1)

    problem = prob.SmoothProblem("signed-zero", 2, lambda x: 0.5 * np.asarray(x)[..., 0] ** 2,
                                 gradient)
    kinds, x0 = [_signed_zero(1), _signed_zero(-1)], np.full(2, 0.6)
    batches = opt.run_batch(kinds, problem, prob.NoiseModel(), x0, [6, 6], [0, 1], [1, 1])
    for kind, results in zip(kinds, batches):
        for seed, got in enumerate(results):
            _same_as_alone(got, kind, problem, prob.NoiseModel(), x0, 6, seed, 1)
    assert [np.signbit(r[0].state.m[1]) for r in batches] == [True, False]


def _mixed_stream():
    """A custom q = 2 stream whose gammas mix 1.0 with 0.5; its weights sum
    to one at k = 0 and 3 (mod 4)."""
    rows = [((1.0, 1.0), (0.5, 0.5)), ((1.0, 0.5), (0.6, -0.2)),
            ((0.5, 1.0), (0.3, 0.1)), ((0.5, 0.5), (0.7, 0.3))]
    return opt.AlgorithmKind("mixed", 2, _per_k(lambda k: (
        0.05, *rows[k % 4])))


def test_mem_step_past_a_non_finite_x_prev_raises_no_warning():
    """The mixed stream's mem_step with carry gammas (1.0, 0.5) from a stack
    whose x_prev holds inf and NaN raises no RuntimeWarning (a product
    0 * inf at gamma = 1 would), and its query point at gamma = 1 is x, bit
    for bit, -0.0 included."""
    problem, kind = prob.quadratic_problem(5, conditioning=3.0), _mixed_stream()
    x = np.array([[-0.0, 0.5, -1.0, 0.25, 2.0], np.linspace(-1.0, 1.0, 5), np.full(5, -0.0)])
    x_prev = x.copy()
    x_prev[1, 2:4] = (np.inf, np.nan)
    carry = _block(-1, [(math.nan, (1.0, 0.5), (0.5, 0.5))])
    state = opt.OptimizerState(x_prev, x, np.zeros_like(x), 0, carry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(4):
            state = opt.mem_step(state, kind.bundles(k, k + 1),
                                 _oracle(problem, prob.NoiseModel()), np.zeros(3))
            if k == 0:
                assert state.zs[0].tobytes() == x.tobytes()
                assert not np.isfinite(state.zs[1][1]).all()


def test_a_float_rule_is_the_constant_rule():
    """sg and sg_pm read a float v as the rule lambda k: v, bit for bit. A
    bad float is refused when sg or sg_pm is called; that rule is refused
    inside run, at k = 0, with the same text behind its k."""
    problem, noise = _datafit(), prob.NoiseModel("scalar-gaussian-envelope", 2.0)
    x0 = np.full(problem.dim, 0.6)
    pairs = [(opt.sg(0.01), opt.sg(lambda k: 0.01)),
             (opt.sg_pm(0.1, 0.03), opt.sg_pm(lambda k: 0.1, lambda k: 0.03)),
             (opt.sg_pm(0.1), opt.sg_pm(lambda k: 0.1)),
             (opt.sg_pm(eta_rule=0.03), opt.sg_pm(eta_rule=lambda k: 0.03))]
    for floats, rules in pairs:
        got = opt.run(floats, problem, noise, x0, 300, 3, log_stride=7)
        _same_as_alone(got, rules, problem, noise, x0, 300, 3, 7)
    for floats, rules, message in (
            (lambda: opt.sg_pm(0.0, 0.03), opt.sg_pm(lambda k: 0.0, lambda k: 0.03),
             r"gamma must be in \(0, 1\], got 0.0$"),
            (lambda: opt.sg(0.0), opt.sg(lambda k: 0.0), r"eta must be positive, got 0.0$")):
        with pytest.raises(ValueError, match="^" + message):
            floats()
        with pytest.raises(ValueError, match="^bundle for k=0: " + message):
            opt.run(rules, problem, noise, x0, 300, 3)


def test_a_step_size_that_is_not_finite_is_refused_when_built():
    """Built, such a kind would end its run "non-finite at 0", or raise
    OverflowError inside run for an int beyond the float range."""
    big = 10**400
    for build, name, value in ((lambda v: opt.sg(v), "eta", big),
                               (lambda v: opt.sg_pm(0.5, v), "eta", big),
                               (lambda v: opt.nigt(0.5, v), "eta", big),
                               (lambda v: opt.sg_pm(v, 0.1), "gamma", math.inf),
                               (lambda v: opt.nigt(v, 0.1), "gamma", -math.inf)):
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == f"{name} must be finite, got {value!r}"


def test_a_stacked_group_stops_together_on_the_wall_clock(monkeypatch):
    """The clock is read once per iteration of a group: at a ceiling of
    100.5 on the counting clock every member of the q = 1 group stops after
    iteration 100, its rows a prefix of its run alone and its state and
    closing row those of a run alone to k = 101."""
    problem = prob.quadratic_problem(10, conditioning=4.0)
    noise = prob.NoiseModel("scalar-gaussian-envelope", 1.0)
    kinds = [opt.mem(sched.ScheduleConfig(p=2, q=1)), opt.sg_pm(), opt.nigt(0.3, 0.05)]
    full = [[opt.run(kind, problem, noise, np.ones(10), 1000, seed, log_stride=10)
             for seed in (0, 1)] for kind in kinds]
    monkeypatch.setattr(opt, "time", _CountingClock())
    batches = opt.run_batch(kinds, problem, noise, np.ones(10), [1000] * 3, [0, 1], [10] * 3,
                            wall_seconds=100.5)
    for kind, results, alone in zip(kinds, batches, full):
        for seed, (got, whole) in enumerate(zip(results, alone)):
            assert got.state.k == 101 and got.status == "wall-clock"
            assert _strip(got.records[:-1]) == _strip(whole.records[: len(got.records) - 1])
            _same_as_alone(dataclasses.replace(got, status="completed"), kind, problem, noise,
                           np.ones(10), 101, seed, 10)


def test_block_length_follows_the_largest_group(monkeypatch):
    """A block array holds at most _BLOCK_VALUES values: the default sg-pm
    grid is one group of 35 points x 3 seeds, a (105, 50) state, so its
    blocks have 32768 // (105 * 50) = 6 iterations. Groups of one member
    keep blocks of _BLOCK_VALUES // (S n) iterations, at most 256."""
    calls = []
    real = opt._steps

    def steps(state, block, oracle, xis, *args):  # block[0]: the members' etas
        out = real(state, block, oracle, xis, *args)
        calls.append((len(block[0]), len(xis), out[3].size))
        return out

    monkeypatch.setattr(opt, "_steps", steps)
    config = har.RunConfig(algorithm="sg-pm", problem="datafit", synthetic=50, sigma=1.0,
                           iters=1)
    grid = har.grid_search(config, 20)
    assert len(grid["grid"]) == 35
    assert calls == [(35, 6, 6 * 105 * 50)] * 3 + [(35, 2, 2 * 105 * 50)]
    assert max(size for _, _, size in calls) <= opt._BLOCK_VALUES

    calls.clear()
    kinds = [opt.sg(), opt.sg_pm(), opt.nigt(0.3, 0.05)]
    opt.run_batch(kinds, prob.datafit_problem(prob.generate_synthetic(50, 1)), prob.NoiseModel(),
                  np.ones(50), [700, 600, 500], [0, 1, 2], [50] * 3)
    assert {(k, b) for k, b, _ in calls} == {(1, 218), (1, 700 - 3 * 218), (1, 600 - 2 * 218),
                                             (1, 500 - 2 * 218)}
    assert len(calls) == 4 + 3 + 3


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
        stacked = opt.mem_step(stacked, kind.bundles(k, k + 1), oracle, np.array(draws))
        rows = [opt.mem_step(st, kind.bundles(k, k + 1), oracle, d) for st, d in zip(rows, draws)]
        for i, row in enumerate(rows):
            assert np.array_equal(stacked.x_cur[i], row.x_cur)
            assert np.array_equal(stacked.m[i], row.m)
    assert list(np.broadcast_to(stacked.zero_steps, 3)) == [6, 0, 0]
    assert [row.zero_steps for row in rows] == [6, 0, 0]


def test_step_wrappers_take_the_kinds_steps():
    """sg_step, sgpm_step and nigt_step at constant parameters step as run
    steps their kinds, iteration after iteration."""
    problem = _datafit()
    noise = prob.NoiseModel("scalar-gaussian-envelope", 1.0)
    oracle, x0 = _oracle(problem, noise), np.full(problem.dim, 0.4)
    for kind, step in ((opt.sg(lambda k: 0.1), lambda st, xi: opt.sg_step(st, 0.1, oracle, xi)),
                       (opt.sg_pm(lambda k: 0.3, lambda k: 0.05),
                        lambda st, xi: opt.sgpm_step(st, 0.3, 0.05, oracle, xi)),
                       (opt.nigt(0.3, 0.05),
                        lambda st, xi: opt.nigt_step(st, 0.3, 0.05, oracle, xi))):
        state = opt.initial_state(x0, 1)
        for k in range(3):
            state = step(state, prob.draw_sample(noise, problem.dim, 7, k))
        alone = opt.run(kind, problem, noise, x0, 3, seed=7).state
        for a, b in ((state.x_prev, alone.x_prev), (state.x_cur, alone.x_cur),
                     (state.m, alone.m)):
            assert a.tobytes() == b.tobytes()
        assert (state.k, state.oracle_calls, _carry(state)) == (3, 3, _carry(alone))


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
    with pytest.raises(ValueError, match="^0 kinds, 0 budgets, 0 log strides, 1 seeds"):
        opt.run_batch([], problem, prob.NoiseModel(), np.ones(3), [], [0], [])
    for wall in (math.nan, -1.0, 0.0):  # nan once ran with no ceiling, -1 stopped after a step
        with pytest.raises(ValueError, match=rf"^wall_seconds must be positive, got {wall}$"):
            opt.run(kind, problem, prob.NoiseModel(), np.ones(3), 5, 0, wall_seconds=wall)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_run_reads_bundle_blocks_bit_for_bit(p):
    """run fetches mem's bundles a loop block at a time (at most 256
    iterations); across three blocks every step is the one mem_step takes
    on params_general(k, p)."""
    problem, noise = _datafit(), prob.NoiseModel("scalar-gaussian-envelope", 1.0)
    budget, x0 = 600, np.ones(10)
    kind = opt.mem(sched.ScheduleConfig(p=p, q=p - 1))
    got = opt.run(kind, problem, noise, x0, budget, seed=9, store_iterates=True)
    state, iterates = opt.initial_state(x0, p - 1), [x0]
    for k in range(budget):
        xi = prob.draw_sample(noise, problem.dim, 9, k)
        state = opt.mem_step(state, sched.params_general(k, p), _oracle(problem, noise), xi)
        iterates.append(state.x_cur)
    _same_state(got.state, state)
    assert _carry(got.state) == _carry(state)
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, iterates, strict=True))


def test_hand_built_streams_are_read_one_k_after_another():
    seen = []
    kind = opt.AlgorithmKind("probe", 1, _per_k(lambda k: seen.append(k) or (
        (k + 1.0) ** -0.5, (1.0,), (1.0,))))
    opt.run(kind, _datafit(), prob.NoiseModel(), np.ones(10), 300, seed=0, log_stride=50)
    assert seen == list(range(300))


class _CountingClock:
    """perf_counter that reads 0, 1, 2, .. on successive calls."""

    def __init__(self):
        self.calls = -1

    def perf_counter(self):
        self.calls += 1
        return float(self.calls)


@pytest.mark.parametrize("stop_kind", [0, 1])
@pytest.mark.parametrize("stop_k", [100, 255])
def test_wall_clock_stops_after_the_iteration_that_crosses_it(monkeypatch, stop_kind, stop_k):
    """The loop reads the clock once at the start and once after each
    iteration, kind after kind within a block of 256 iterations. Kind 0's
    iteration k ends at time k + 1 and kind 1's at 256 + k + 1, so each
    ceiling below is first crossed by iteration stop_k of kind stop_kind,
    mid-block (k = 100) or on a block's last step (k = 255). The batch
    stops right after it; a kind that has not reached the block stays at 0."""
    monkeypatch.setattr(opt, "time", _CountingClock())
    kinds = [opt.mem(sched.ScheduleConfig(p=3, q=2)), opt.sg(lambda k: 0.01)]
    problem = prob.quadratic_problem(10, conditioning=4.0)
    noise = prob.NoiseModel("scalar-gaussian-envelope", 1.0)
    wall = 256 * stop_kind + stop_k + 0.5
    batches = opt.run_batch(kinds, problem, noise, np.ones(10), [1000, 1000], [0, 1],
                            [50, 50], wall_seconds=wall)
    want = [256, 256][:stop_kind] + [stop_k + 1] + [0][: 1 - stop_kind]
    for kind, results, k in zip(kinds, batches, want):
        for res in results:
            assert res.state.k == k
            assert res.status == "wall-clock"
            assert res.records[-1].k == k
            assert res.records[-1].oracle_calls == res.state.oracle_calls == k * kind.q


def test_bundles_with_another_q_are_refused():
    """A stream whose bundles have a q other than the kind's would make
    more oracle calls than compare budgets for (budget // kind.q
    iterations); run and mem_step name the first such k and both q."""
    problem, noise = _datafit(), prob.NoiseModel()
    wrong = opt.AlgorithmKind("x", 1, lambda k0, k1: sched.params_block(3, k0, k1))
    with pytest.raises(ValueError, match=r"^params are for k=0 with q=2, state is at k=0 with q=1"):
        opt.run(wrong, problem, noise, np.ones(10), 10, seed=0)
    state = opt.initial_state(np.ones(10), q=1)
    with pytest.raises(ValueError, match=r"k=0 with q=2, state is at k=0 with q=1"):
        opt.mem_step(state, sched.params_general(0, 3), _oracle(problem, noise),
                     prob.draw_sample(noise, 10, 0, 0))


def test_custom_blocks_are_checked():
    """A kind's block stream is checked before the kernel reads it: it must
    start at the requested k with one row per iteration in every column, and
    its gammas and thetas must have the kind's q. The error names what is
    wrong, never an IndexError from deep in the kernel."""
    problem, noise = prob.quadratic_problem(5), prob.NoiseModel()

    def kind(q, block):
        return opt.AlgorithmKind("custom", q, block)

    def cut(column, rows=-1, q=0):  # mem's block with one column cut or widened
        def block(a, b):
            full = sched.params_block(3, a, b)
            col = getattr(full, column)
            col = col[:rows] if not q else np.concatenate([col, col[:, :q]], axis=1)
            return dataclasses.replace(full, **{column: col})
        return block

    cases = [
        (1, lambda a, b: sched.params_block(3, a, b),
         r"^params are for k=0 with q=2, state is at k=0 with q=1$"),
        (2, lambda a, b: sched.params_block(3, a + 5, b + 5),
         r"^params are for k=5 with q=2, state is at k=0 with q=2$"),
        (2, lambda a, b: sched.params_block(3, a, b + 3), r"^13 bundles for the 10 iterations 0..9$"),
        (2, lambda a, b: sched.params_block(3, a, max(a + 1, b - 3)),
         r"^7 bundles for the 10 iterations 0..9$"),
        (2, cut("gammas"), r"^gammas has 9 rows for the 10 iterations 0..9$"),
        (2, cut("thetas"), r"^thetas has 9 rows for the 10 iterations 0..9$"),
        (2, cut("thetas", q=1), r"^thetas have q=3, state is at k=0 with q=2$"),
    ]
    for q, block, message in cases:
        with pytest.raises(ValueError, match=message):
            opt.run(kind(q, block), problem, noise, np.ones(5), 10, 0)
    good = opt.run(kind(2, lambda a, b: sched.params_block(3, a, b)), problem, noise,
                   np.ones(5), 10, 0)
    assert good.status == "completed" and good.state.k == 10


def test_one_gate_per_block_names_the_bad_k():
    """Every gamma and eta a kernel block reads is checked before its first
    step, and the error names the k of the bundle at fault: here k = 300,
    in the second loop block."""
    problem, noise, x0 = prob.quadratic_problem(5), prob.NoiseModel(), np.ones(5)

    def eta_at(bad):
        return lambda k: bad if k == 300 else 0.01

    def gamma_at(k):
        return 0.0 if k == 300 else 0.5

    def view(a, b):  # mem's block with gamma 0 at k = 300
        block = sched.params_block(3, a, b)
        gammas = block.gammas.copy()
        if a <= 300 < b:
            gammas[300 - a, 0] = 0.0
        return sched.ParamsBlock(block.k0, block.eta, gammas, block.thetas)

    per_k = opt.AlgorithmKind(
        "custom", 1, _per_k(lambda k: (0.01, (gamma_at(k),), (0.5,))))
    blocked = opt.AlgorithmKind("custom", 2, view)
    cases = [(make(eta_at(bad)), rf"^bundle for k=300: eta must be positive, got {bad}$")
             for make in (opt.sg, lambda rule: opt.sg_pm(eta_rule=rule))
             for bad in (0.0, -1.0, math.nan)]
    cases += [(kind, r"^bundle for k=300: gamma must be in \(0, 1\], got 0.0$")
              for kind in (per_k, blocked, opt.sg_pm(gamma_at))]
    for kind, message in cases:
        with pytest.raises(ValueError, match=message):
            opt.run(kind, problem, noise, x0, 400, 0)

    # a hand-built state whose carry has gamma 0 is refused at the carry's k
    carry = _block(6, [(0.1, (0.0,), (0.5,))])
    state = opt.OptimizerState(x0, x0, np.zeros(5), 7, carry)
    with pytest.raises(ValueError, match=r"^bundle for k=6: gamma must be in \(0, 1\], got 0.0$"):
        opt.mem_step(state, per_k.bundles(7, 8), _oracle(problem, noise), 0.0)

    # the gammas of a run's last bundle are never read, so they are not refused
    last = opt.run(per_k, problem, noise, x0, 301, 0)
    assert last.status == "completed" and last.state.k == 301
    assert last.state.carry.gammas.tolist() == [[0.0]]


def test_the_gate_reads_a_group_member_after_member():
    """The members of a group are checked one after another, k after k:
    sg-pm with eta 0 at k = 350 and a q = 1 stream with gamma 0 at
    k = 300 step as one state, both faults in the second loop block, and the
    group is refused at the first member's. A member whose block has the
    wrong q is refused only after the members before it are checked."""
    problem, noise, x0 = prob.quadratic_problem(5), prob.NoiseModel(), np.ones(5)
    eta = opt.sg_pm(eta_rule=lambda k: 0.0 if k == 350 else 0.01)
    gamma = opt.AlgorithmKind("custom", 1, _per_k(lambda k: (
        0.01, (0.0 if k == 300 else 0.5,), (0.5,))))
    wide = opt.AlgorithmKind("wide", 1, lambda a, b: sched.params_block(2 if a < 256 else 3, a, b))
    cases = [([eta, gamma], r"^bundle for k=350: eta must be positive, got 0.0$"),
             ([gamma, eta], r"^bundle for k=300: gamma must be in \(0, 1\], got 0.0$"),
             ([eta, wide], r"^bundle for k=350: eta must be positive, got 0.0$"),
             ([wide, eta], r"^params are for k=256 with q=2, state is at k=256 with q=1$")]
    for kinds, message in cases:
        with pytest.raises(ValueError, match=message):
            opt.run_batch(kinds, problem, noise, x0, [400, 400], [0, 1], [1, 1])
