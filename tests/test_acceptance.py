"""Acceptance gate: one test per shipped guarantee, in gate order.

Every tolerance and time limit here is part of the guarantee itself, so
they appear as literals and nothing is loosened to make a box green. The
unit suites own the fine-grained cases; these tests exercise the public
surface end to end.
"""

import time

import numpy as np

import momex.harness as har
import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sch
import momex.verify as ver


def _strip_timing(records):
    return [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in records
    ]


def test_weight_system_residual():
    """Schedule weights satisfy their defining linear system, scaled
    residual <= 1e-9, for orders 2..6 over k <= 1e4, within 10 s."""
    t0 = time.perf_counter()
    worst = max(ver.weight_residual_sweep(p, 10_000) for p in range(2, 7))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst scaled residual {worst:.3e}, tol 1e-9"
    assert elapsed <= 10.0, f"sweep took {elapsed:.1f}s, limit 10s"


def test_closed_form_matches_dense_solve():
    """Closed-form weights agree with an independent dense solve to
    relative 1e-8 for every bundle size up to 5, over the same sweep."""
    worst = max(ver.dense_agreement_sweep(p, 10_000) for p in range(2, 7))
    assert worst <= 1e-8, f"worst closed-vs-dense gap {worst:.3e}, tol 1e-8"


def test_weight_sum_identity_and_sign_pattern():
    """The product form of sum(theta) matches the elementwise sum to
    relative 1e-12, and the leading-positive alternating sign pattern
    holds with zero violations, orders 2..6 over k <= 1e4."""
    for p in range(2, 7):
        worst, violations = ver.sum_identity_sweep(p, 10_000)
        assert worst <= 1e-12, f"p={p}: sum gap {worst:.3e}, tol 1e-12"
        assert violations == 0, f"p={p}: {violations} sign violations"


def test_weight_bounds_and_potential_growth():
    """Envelope bounds on sum(theta) and theta_t^2 and the potential
    weight inequality hold at every k <= 1e6 for orders 2..6, within 60 s."""
    t0 = time.perf_counter()
    for p in range(2, 7):
        report = ver.bound_sweep(p, 10**6)
        assert report.passed, f"p={p}: {report.detail}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"sweeps took {elapsed:.1f}s, limit 60s"


def test_general_schedule_specializes_to_order_three():
    """params_general(k, 3) reproduces the dedicated order-3 schedule to
    relative 1e-14 for k <= 1e4."""
    report = ver.p3_consistency_check(10_000)
    assert report.passed, report.detail
    assert report.worst_case <= 1e-14, f"worst gap {report.worst_case:.3e}"


def test_gradients_match_central_differences():
    """Analytic gradients of all three problems agree with central finite
    differences to relative 1e-6 at 20 seeded points each."""
    ds = prob.generate_synthetic(40, seed=2)
    for problem in (
        prob.datafit_problem(ds),
        prob.robust_problem(ds),
        prob.quadratic_problem(12, conditioning=7.0),
    ):
        report = ver.gradient_check(problem, n_points=20, seed=0)
        assert report.passed and report.worst_case <= 1e-6, (
            f"{report.name}: worst {report.worst_case:.3e}, tol 1e-6"
        )


def test_step_length_and_extrapolation_identities():
    """Along a seeded noisy run, every update moves exactly eta_k (to
    relative 1e-12) and every query point satisfies
    z - x_prev = (x - x_prev)/gamma (to relative 1e-10)."""
    ds = prob.generate_synthetic(50, seed=0)
    problem = prob.datafit_problem(ds)
    noise = prob.NoiseModel("scalar-gaussian-envelope", 10.0)
    oracle = lambda z, s: prob.stochastic_grad(problem, noise, z, s)
    config = sch.ScheduleConfig(p=3, q=2)

    state = opt.initial_state(np.ones(problem.dim), q=2)
    worst_step = 0.0
    worst_z = 0.0
    for k in range(1_000):
        x_prev, x_cur, carry = state.x_prev, state.x_cur, state.carry
        params = sch.params_for(config, k)
        state = opt.mem_step(
            state, params, oracle, prob.draw_sample(noise, problem.dim, 7, k)
        )
        moved, eta = float(np.linalg.norm(state.x_cur - state.x_prev)), params.eta[0]
        worst_step = max(worst_step, abs(moved - eta) / eta)
        for z, g in zip(state.zs, carry.gammas[0]):
            rhs = (x_cur - x_prev) / g
            err = float(np.linalg.norm((z - x_prev) - rhs))
            worst_z = max(worst_z, err / max(1.0, float(np.linalg.norm(rhs))))
    assert state.zero_steps == 0  # every step length identity was exercised
    assert worst_step <= 1e-12, f"worst step-length error {worst_step:.3e}"
    assert worst_z <= 1e-10, f"worst extrapolation error {worst_z:.3e}"


def test_single_extrapolation_constant_schedule_reproduces_nigt():
    """mem with q=1 and constant (gamma, eta) rules is bitwise the nigt
    baseline under a shared seed: identical records and final iterate."""
    ds = prob.generate_synthetic(30, seed=1)
    problem = prob.datafit_problem(ds)
    noise = prob.NoiseModel("scalar-gaussian-envelope", 5.0)
    x0 = np.ones(problem.dim)

    thetas = sch.solve_weights_closed_form((0.3,))
    constant = opt.AlgorithmKind(
        name="mem", q=1,
        bundles=lambda k0, k1: sch.ParamsBlock(
            k0, np.full(k1 - k0, 0.05), np.full((k1 - k0, 1), 0.3),
            np.tile(thetas, (k1 - k0, 1))),
    )
    a = opt.run(opt.nigt(gamma=0.3, eta=0.05), problem, noise, x0,
                budget=400, seed=21)
    b = opt.run(constant, problem, noise, x0, budget=400, seed=21)
    assert _strip_timing(a.records) == _strip_timing(b.records)
    assert np.array_equal(a.state.x_cur, b.state.x_cur)
    assert np.array_equal(a.state.m, b.state.m)


def test_noise_model_statistics():
    """Oracle noise is unbiased within 4 standard errors over 1e5 draws,
    the squared-difference moment identity holds within 3 standard errors,
    and the smoothness ratio at the origin grows by >= 1.9 per halving of
    the probe distance over {1e-2, 1e-3, 1e-4}."""
    ds = prob.generate_synthetic(30, seed=3)
    problem = prob.datafit_problem(ds)
    noise = prob.NoiseModel("scalar-gaussian-envelope", 2.0)
    x = np.zeros(problem.dim)
    x[0] = 0.25
    y = np.zeros(problem.dim)
    y[0] = 0.05

    unbiased = ver.noise_unbiasedness_check(problem, noise, x, n_draws=100_000)
    assert unbiased.passed, unbiased.detail
    assert unbiased.worst_case <= 4.0, f"z-score {unbiased.worst_case:.2f}"

    moment = ver.noise_moment_check(problem, noise, x, y, n_draws=100_000)
    assert moment.passed, moment.detail
    assert moment.worst_case <= 3.0, f"z-score {moment.worst_case:.2f}"

    ratio = ver.smoothness_ratio_check(problem, noise)
    assert ratio.passed, ratio.detail


def test_noise_free_quadratic_reaches_small_gradient():
    """Deterministic double-extrapolation run on the quadratic drives
    min_k ||grad f(x^k)|| to 1e-3 within 1e5 iterations and 5 s."""
    cfg = har.RunConfig(
        algorithm="mem", p=3, q=2, problem="quadratic", dim=10,
        conditioning=10.0, noise="none", iters=100_000, seed=0, log_stride=1,
    )
    t0 = time.perf_counter()
    _, summary = har.run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert summary["min_grad_norm"] <= 1e-3, (
        f"min grad norm {summary['min_grad_norm']:.3e}, tol 1e-3"
    )
    assert elapsed <= 5.0, f"run took {elapsed:.1f}s, limit 5s"


def test_desk_scale_method_ordering():
    """At a 2e4 oracle-call budget on noisy synthetic datafit (n=50,
    sigma 10, 10 seeds) the median final relative objective should order
    mem(q=2) <= mem(q=1) <= sg-pm, each leg strict in >= 6 of 10 seeds,
    within 60 s. The sg-pm constants are the documented-grid best at this
    exact budget (selected on 3 seeds, evaluated here on 10).

    Known red: at this budget the ordering comes out inverted. The
    double-extrapolation schedule finishes with a ~2x larger step floor
    and a faster-decaying mixing weight than the single-extrapolation
    one, and both decaying schedules trail a tuned constant-step
    baseline until far larger budgets. The assertion stays as stated;
    the failure message carries the measured table.
    """
    base = dict(problem="datafit", synthetic=50, data_seed=0, sigma=10.0,
                noise="scalar-gaussian-envelope", x0="ones", iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=3, q=2, **base),
        har.RunConfig(algorithm="mem", p=2, q=1, **base),
        har.RunConfig(algorithm="sg-pm", gamma=0.12649110640673517,
                      eta=0.01, **base),
    ]
    t0 = time.perf_counter()
    table = har.compare(configs, budget=20_000, n_seeds=10, base_seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"comparison took {elapsed:.1f}s, limit 60s"

    q2, q1, pm = table["labels"]
    med = table["median_final"]
    f2, f1, fp = (table["final"][lb] for lb in (q2, q1, pm))
    wins_21 = sum(a < b for a, b in zip(f2, f1))
    wins_1p = sum(a < b for a, b in zip(f1, fp))
    measured = (
        f"medians: q=2 {med[q2]:.4f}, q=1 {med[q1]:.4f}, sg-pm {med[pm]:.4f}; "
        f"strict wins: q=2 over q=1 {wins_21}/10, q=1 over sg-pm {wins_1p}/10"
    )
    assert med[q2] <= med[q1] and wins_21 >= 6, f"inner leg failed; {measured}"
    assert med[q1] <= med[pm] and wins_1p >= 6, f"outer leg failed; {measured}"


def test_repeated_run_emits_identical_csv(tmp_path):
    """Two invocations of the same seeded run produce byte-identical CSV
    apart from the elapsed_seconds column, which is masked."""
    argv = ["run", "--alg", "mem", "--p", "3", "--problem", "datafit",
            "--synthetic", "20", "--sigma", "5.0", "--iters", "300",
            "--seed", "9", "--log-stride", "10"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert har.main(argv + ["--out", str(out_a)]) == 0
    assert har.main(argv + ["--out", str(out_b)]) == 0

    def masked(path):
        lines = path.read_bytes().decode("ascii").splitlines()
        assert lines[0] == har.CSV_HEADER
        return [ln.rsplit(",", 1)[0] for ln in lines]

    assert masked(out_a) == masked(out_b)
