import math
import tracemalloc

import numpy as np
import pytest

import momex.problems as prob
import momex.schedule as sched
import momex.verify as ver


def _datafit(n=10, seed=1):
    return prob.datafit_problem(prob.generate_synthetic(n, seed=seed))


# ---------------------------------------------------------------------------
# the finite-difference oracle itself
# ---------------------------------------------------------------------------

def test_finite_diff_grad_on_known_polynomial():
    f = lambda x: float(np.sum(x**3))
    x = np.array([0.7, -1.3, 2.1])
    fd = ver.finite_diff_grad(f, x)
    np.testing.assert_allclose(fd, 3.0 * x**2, rtol=1e-8)


def test_finite_diff_grad_equals_the_one_point_loop():
    f = lambda x: float(np.sin(x).sum() + x[0] * x[-1] ** 2)
    x = np.array([0.7, -1.3, 2.1, 0.0])
    h = 1e-5 * np.maximum(1.0, np.abs(x))
    ref = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        ref[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    assert np.array_equal(ver.finite_diff_grad(f, x, h), ref)
    with pytest.raises(ValueError, match="positive"):
        ver.finite_diff_grad(f, x, 0.0)


def _gradient_check_one_point(problem, n_points, seed, h=1e-5):
    # gradient_check as it read with one problem.value call per perturbed point
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = rng.standard_normal(problem.dim)
        fd = ver.finite_diff_grad(problem.value, x, h * np.maximum(1.0, np.abs(x)))
        g = problem.gradient(x)
        ng = float(np.linalg.norm(g))
        worst = max(worst, float(np.linalg.norm(fd - g)) / ng if ng > 0.0 else math.inf)
    return ver.CheckReport(
        name=f"gradient:{problem.name}", passed=worst <= 1e-6, worst_case=worst,
        samples=n_points,
        detail=f"worst ||fd-grad||/||grad|| over {n_points} points; tol 1e-6")


def test_gradient_check_equals_the_one_point_loop():
    data = prob.generate_synthetic(30, seed=0)
    for seed, problem in enumerate((prob.datafit_problem(data), prob.robust_problem(data),
                                    prob.quadratic_problem(20, 100.0))):
        assert ver.gradient_check(problem, 20, seed) == _gradient_check_one_point(
            problem, 20, seed)


def test_gradient_check_passes_for_all_problems():
    for p in (
        _datafit(),
        prob.robust_problem(prob.generate_synthetic(10, seed=2)),
        prob.quadratic_problem(10, conditioning=30.0),
    ):
        rep = ver.gradient_check(p, n_points=20, seed=0)
        assert rep.passed, rep.detail
        assert rep.worst_case <= 1e-6
        assert rep.samples == 20


def test_gradient_check_catches_planted_fault():
    good = prob.quadratic_problem(6, conditioning=3.0)
    bad = prob.SmoothProblem(
        name="broken",
        dim=6,
        value=good.value,
        gradient=lambda x: good.gradient(x) * 1.001,
        constants=good.constants,
    )
    rep = ver.gradient_check(bad, n_points=5, seed=0)
    assert not rep.passed


# ---------------------------------------------------------------------------
# expansion remainders and constant estimates
# ---------------------------------------------------------------------------

def test_taylor_remainder_certified_quadratic():
    q = prob.quadratic_problem(5, conditioning=6.0)
    x = np.ones(5)
    rep = ver.taylor_remainder_check(q, x, x + 0.3, 2)
    assert rep.passed
    assert rep.worst_case == 0.0  # quadratic gradients have no order-2 remainder


def test_taylor_remainder_empirical_datafit():
    d = _datafit(8)
    x = np.ones(8)
    rep = ver.taylor_remainder_check(d, x, x + 0.05, 2)
    assert rep.passed
    assert np.isfinite(rep.worst_case) and rep.worst_case >= 0.0
    with pytest.raises(ValueError, match="orders 1 and 2"):
        ver.taylor_remainder_check(d, x, x + 0.05, 3)
    with pytest.raises(ValueError, match=r"^expansion order must be >= 1, got 0$"):
        ver.taylor_remainder_check(d, x, x + 0.05, 0)


def test_lipschitz_estimate_respects_true_constant():
    q = prob.quadratic_problem(5, conditioning=6.0)
    est = ver.lipschitz_estimate(q, order=1, n_pairs=300, seed=0)
    assert est <= 6.0 * (1.0 + 1e-12)
    assert est >= 3.0  # random pairs land near the top eigenvalue eventually
    with pytest.raises(ValueError, match=r"^n_pairs must be >= 1, got 0$"):
        ver.lipschitz_estimate(q, 1, n_pairs=0)


# ---------------------------------------------------------------------------
# noise checks
# ---------------------------------------------------------------------------

def test_noise_unbiasedness_both_kinds():
    d = _datafit(8)
    x = np.ones(8)
    for kind in ("scalar-gaussian-envelope", "elementwise-gaussian-envelope"):
        nm = prob.NoiseModel(kind=kind, sigma_tilde=2.0)
        rep = ver.noise_unbiasedness_check(d, nm, x, n_draws=40000)
        assert rep.passed, rep.detail
    # no draw is made where the oracle is exact: no noise, or x = 0 under the envelope
    for nm, at, detail in (
            (prob.NoiseModel(), x, "noiseless oracle is its own mean"),
            (prob.NoiseModel("elementwise-gaussian-envelope", 2.0), np.zeros(8),
             "envelope vanishes at this point; oracle is exact")):
        rep = ver.noise_unbiasedness_check(d, nm, at, n_draws=40000)
        assert (rep.name, rep.passed, rep.worst_case, rep.samples, rep.detail) == (
            f"unbiased:{nm.kind}", True, 0.0, 0, detail)


def _whole_array_z(scalar, dim, n_draws, seed):
    """The unbiasedness z-score from all draws held at once, as numpy states it."""
    xi = np.random.default_rng(seed).standard_normal(n_draws if scalar else (n_draws, dim))
    return float(np.max(np.abs(xi.mean(axis=0)) * math.sqrt(n_draws) / xi.std(axis=0, ddof=1)))


@pytest.mark.parametrize("chunk", [ver._CHUNK, 8])
@pytest.mark.parametrize("dim", [1, 2, 20])
def test_blocked_unbiasedness_z_is_the_whole_array_z(monkeypatch, dim, chunk):
    # 12,345 draws leave a partial last block; a chunk of 8 makes many blocks,
    # and one row a block at dim 20
    monkeypatch.setattr(ver, "_CHUNK", chunk)
    problem = prob.quadratic_problem(dim, conditioning=3.0)
    for kind in ("scalar-gaussian-envelope", "elementwise-gaussian-envelope"):
        nm = prob.NoiseModel(kind=kind, sigma_tilde=2.0)
        for n_draws, seed in ((12_345, 3), (5, 0)):
            rep = ver.noise_unbiasedness_check(problem, nm, np.ones(dim), n_draws, seed)
            z = _whole_array_z(kind.startswith("scalar"), dim, n_draws, seed)
            assert rep.worst_case == z and rep.samples == n_draws


def test_unbiasedness_bridges_five_draws_in_one_block_of_memory(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return prob.stochastic_grad(*args)

    monkeypatch.setattr(ver, "stochastic_grad", counted)
    problem = prob.quadratic_problem(20, conditioning=3.0)
    nm = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=2.0)
    tracemalloc.start()
    try:
        rep = ver.noise_unbiasedness_check(problem, nm, np.ones(20), 100_000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 5
    # the whole (1e5, 20) draw array alone is 15.3 MiB
    assert peak < 4 * 2**20, peak
    assert rep.worst_case == _whole_array_z(False, 20, 100_000, 4)
    with pytest.raises(ValueError, match="at least 5 draws"):
        ver.noise_unbiasedness_check(problem, nm, np.ones(20), 4)
    # the five bridged draws catch an oracle off the reduction by 0.1%
    monkeypatch.setattr(ver, "stochastic_grad", lambda *args: 1.001 * prob.stochastic_grad(*args))
    with pytest.raises(RuntimeError, match="^draw reduction disagrees with the oracle path$"):
        ver.noise_unbiasedness_check(problem, nm, np.ones(20), 100, 4)


def test_noise_moment_identity():
    d = _datafit(8)
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    x = np.ones(8)
    rep = ver.noise_moment_check(d, nm, x, 0.05 * x, n_draws=30000)
    assert rep.passed, rep.detail
    # both envelopes saturated: the difference is deterministic, still fine
    rep = ver.noise_moment_check(d, nm, x, 0.5 * x, n_draws=10000)
    assert rep.passed, rep.detail


def test_noise_moment_guards(monkeypatch):
    d = _datafit(8)
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    with pytest.raises(ValueError, match="10\\^4"):
        ver.noise_moment_check(d, nm, np.ones(8), np.zeros(8), n_draws=100)
    el = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=2.0)
    with pytest.raises(ValueError, match="scalar"):
        ver.noise_moment_check(d, el, np.ones(8), np.zeros(8))
    # an oracle off by a factor (a constant offset cancels in the difference)
    monkeypatch.setattr(ver, "stochastic_grad", lambda *args: 1.001 * prob.stochastic_grad(*args))
    with pytest.raises(RuntimeError, match="^quadratic reduction disagrees with the oracle path$"):
        ver.noise_moment_check(d, nm, np.ones(8), 0.05 * np.ones(8))


def test_smoothness_ratio_diverges_near_origin():
    d = _datafit(8)
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    rep = ver.smoothness_ratio_check(d, nm)
    assert rep.passed, rep.detail
    assert rep.worst_case == 0.0
    with pytest.raises(ValueError, match="^ratio check needs a gaussian noise kind$"):
        ver.smoothness_ratio_check(d, prob.NoiseModel())


# ---------------------------------------------------------------------------
# schedule sweeps (small ranges here; the acceptance gate runs the full ones)
# ---------------------------------------------------------------------------

def test_weight_residual_sweep_small():
    assert ver.weight_residual_sweep(4, 500) <= 1e-9
    with pytest.raises(ValueError, match="^k_max must be >= 0, got -1$"):
        ver.weight_residual_sweep(3, -1)


def _residual_dot_form(params):
    # validate's residual as it read with one dot product per power r
    (g,), (th,) = params.gammas, params.thetas
    u = 1.0 / g
    worst = 0.0
    row_norm = 0.0
    for r in range(1, g.size + 1):
        row = u ** float(r)
        worst = max(worst, abs(float(row @ th) - 1.0))
        row_norm = max(row_norm, float(row.sum()))
    denom = row_norm * float(np.max(np.abs(th)))
    return worst / denom if denom > 0.0 else math.inf


def test_validate_residual_matches_the_dot_product_form():
    # validate now shares the sweep's elementwise sums, which may round the
    # last bit differently from a dot product; 1e-16 absolute is the pin
    bundles = [sched.params_general(k, p) for p in range(2, 7) for k in range(0, 3000, 7)]
    bundles += [ver.params_p3(k) for k in (0, 1, 100)]
    for b in bundles:
        assert abs(ver.validate(b).residual - _residual_dot_form(b)) <= 1e-16, (b.k0, b.gammas)
    zero = sched.ParamsBlock(0, np.array([1.0]), np.array([[0.5, 0.25]]), np.zeros((1, 2)))
    assert ver.validate(zero).residual == _residual_dot_form(zero) == math.inf


def test_dense_agreement_sweep_small():
    assert ver.dense_agreement_sweep(4, 200) <= 1e-8


def test_dense_agreement_sweep_matches_per_bundle_loop(monkeypatch):
    # a small chunk so the sweep crosses several stacked solves
    monkeypatch.setattr(ver, "_CHUNK", 37)
    for p in range(2, 7):
        worst = 0.0
        for k in range(201):
            params = ver.params_general(k, p)
            ref = ver.solve_weights_linear(params.gammas[0])
            gap = np.max(np.abs(params.thetas[0] - ref)) / np.max(np.abs(ref))
            worst = max(worst, float(gap))
        assert ver.dense_agreement_sweep(p, 200) == worst


def _sweeps(k_max):
    return [(ver.bound_sweep(p, k_max), ver.weight_residual_sweep(p, k_max),
             ver.sum_identity_sweep(p, k_max)) for p in range(2, 7)]


def test_sweeps_do_not_depend_on_the_chunk_size(monkeypatch):
    # bound_sweep reads p_{k+1} from the one-index overlap row of each chunk;
    # chunk 1 makes every row an overlap row, chunk 37 ends the k_max = 37
    # sweep on a chunk of one index
    default = ver._CHUNK
    for k_max in (0, 37, 200):
        ref = _sweeps(k_max)
        for size in (1, 37):
            monkeypatch.setattr(ver, "_CHUNK", size)
            assert _sweeps(k_max) == ref, (k_max, size)
        monkeypatch.setattr(ver, "_CHUNK", default)
    # past three default chunk boundaries, against one chunk that holds all
    k_max = 3 * default + 5
    ref = _sweeps(k_max)
    monkeypatch.setattr(ver, "_CHUNK", 4 * default)
    assert _sweeps(k_max) == ref


def _p3_consistency_from_params_p3(k_max):
    # p3_consistency_check as it read with one params_p3 bundle per k
    worst = 0.0
    for a in ver._bundle_blocks(3, 0, k_max + 1):
        general = np.column_stack([a.eta, [math.fsum(t) for t in a.thetas], a.gammas, a.thetas])
        dedicated = np.concatenate([np.column_stack([b.eta, [math.fsum(b.thetas[0])], b.gammas,
                                                     b.thetas])
                                    for b in map(ver.params_p3, range(a.k0, a.k0 + len(a.eta)))])
        worst = max(worst, float((np.abs(general - dedicated) / np.abs(dedicated)).max()))
    return ver.CheckReport(
        name="p3-consistency", passed=worst <= 1e-14, worst_case=worst, samples=k_max + 1,
        detail="relative gap between general p=3 and dedicated bundles; tol 1e-14")


def test_p3_consistency_check_equals_its_params_p3_form():
    for k_max in (0, 255, 256, 1000):
        assert ver.p3_consistency_check(k_max) == _p3_consistency_from_params_p3(k_max)


def test_verify_all_reports_the_direct_checks():
    import momex.harness as har

    report = har.verify_all(k_max=200, bound_k_max=2000, n_draws=10_000)
    assert report["passed"]
    worst = {c["name"]: c["worst_case"] for c in report["checks"]}
    assert len(worst) == len(report["checks"]) == 27
    for p in range(2, 7):
        cross = max(ver.weight_residual_sweep(p, 200) / 1e-9,
                    ver.dense_agreement_sweep(p, 200) / 1e-8)
        assert worst[f"schedule-cross:p{p}"] == cross
        assert worst[f"sum-identity:p{p}"] == ver.sum_identity_check(p, 200).worst_case
        assert worst[f"bounds:p{p}"] == ver.bound_sweep(p, 2000).worst_case
    assert worst["p3-consistency"] == ver.p3_consistency_check(200).worst_case


def test_sum_identity_check_small():
    rep = ver.sum_identity_check(5, 500)
    assert rep.passed
    worst_rel, violations = ver.sum_identity_sweep(5, 500)
    assert worst_rel <= 1e-12
    assert violations == 0


def test_schedule_cross_check_small():
    rep = ver.schedule_cross_check(3, 500)
    assert rep.passed
    assert rep.worst_case <= 1.0
    with pytest.raises(ValueError, match=r"^cross check covers p in 2\.\.6, got 7$"):
        ver.schedule_cross_check(7, 10)


def test_bound_sweep_small():
    for p in (2, 3, 4):
        rep = ver.bound_sweep(p, k_max=10_000)
        assert rep.passed, rep.detail
        assert rep.worst_case <= 0.0  # signed margin, negative means slack
    with pytest.raises(ValueError, match=r"^bound sweep covers p in 2\.\.6, got 7$"):
        ver.bound_sweep(7, 10)


def test_p3_consistency_small():
    rep = ver.p3_consistency_check(k_max=500)
    assert rep.passed
    assert rep.worst_case <= 1e-14


def test_reports_round_trip_to_dict():
    rep = ver.sum_identity_check(2, 50)
    assert rep.name == "sum-identity:p2"
    from dataclasses import asdict

    d = asdict(rep)
    assert set(d) == {"name", "passed", "worst_case", "samples", "detail"}
