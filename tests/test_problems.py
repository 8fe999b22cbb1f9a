import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momex.problems as prob
from momex.verify import finite_diff_grad


# ---------------------------------------------------------------------------
# sigmoid and robust loss primitives
# ---------------------------------------------------------------------------

def test_sigmoid_pinned_values():
    assert prob.sigmoid(0.0) == 0.5
    assert prob.sigmoid(1.0) == 0.7310585786300049
    assert prob.sigmoid_prime(1.0) == 0.19661193324148185
    # saturation is exact in double precision, not an overflow artifact
    assert prob.sigmoid(40.0) == 1.0
    assert 0.0 < prob.sigmoid(-40.0) < 1e-17


def test_sigmoid_array_broadcast():
    t = np.array([-2.0, 0.0, 3.0])
    out = prob.sigmoid(t)
    assert out.shape == t.shape
    assert out[1] == 0.5
    assert np.all((out > 0) & (out < 1))


def _sigmoid_by_sign_split(t):
    """The earlier form: boolean masks split the two tails."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_the_sign_split_bit_for_bit():
    rng = np.random.default_rng(0)
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
               745.0, -745.0, 800.0, -800.0, 37.0, -37.0, np.nan]
    t = np.concatenate([rng.standard_normal(10**6) * 10.0 ** rng.integers(-3, 3, 10**6),
                        special])
    got, want = prob.sigmoid(t), _sigmoid_by_sign_split(t)
    # NaN stays NaN; only its sign bit may differ
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert prob.sigmoid(-0.0) == 0.5


@given(st.floats(min_value=-60.0, max_value=60.0))
@settings(max_examples=300, deadline=None)
def test_sigmoid_symmetry(t):
    assert math.isclose(prob.sigmoid(-t), 1.0 - prob.sigmoid(t), abs_tol=1e-15)


@given(st.floats(min_value=-60.0, max_value=60.0))
@settings(max_examples=200, deadline=None)
def test_sigmoid_prime_matches_product_form(t):
    s = prob.sigmoid(t)
    assert math.isclose(prob.sigmoid_prime(t), s * (1.0 - s), abs_tol=1e-16)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def test_datafit_gradient_matches_finite_differences():
    ds = prob.generate_synthetic(12, seed=4)
    p = prob.datafit_problem(ds)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(12)
        g = p.gradient(x)
        fd = finite_diff_grad(p.value, x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_datafit_zero_at_noiseless_truth():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    xstar = rng.standard_normal(8)
    ds = prob.Dataset(a, prob.sigmoid(a @ xstar), "manual")
    p = prob.datafit_problem(ds)
    assert p.value(xstar) <= 1e-28
    assert p.constants.f_low == 0.0


def test_robust_gradient_matches_finite_differences():
    ds = prob.generate_synthetic(10, seed=5)
    p = prob.robust_problem(ds)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(10)
    fd = finite_diff_grad(p.value, x)
    g = p.gradient(x)
    assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_robust_loss_pinned_point():
    # with identity features and zero targets, f(1,0) = phi(1) + phi(0)
    ds = prob.Dataset(np.eye(2), np.zeros(2), "manual")
    p = prob.robust_problem(ds)
    x = np.array([1.0, 0.0])
    assert p.value(x) == 0.5  # phi(1) = 1/2, phi(0) = 0
    np.testing.assert_array_equal(p.gradient(x), np.array([0.5, 0.0]))  # phi'(1) = 1/2


def test_quadratic_problem():
    p = prob.quadratic_problem(4, conditioning=8.0)
    assert p.constants.L1 == 8.0
    assert p.constants.Lp == 0.0
    assert p.constants.p == 2
    np.testing.assert_array_equal(p.gradient(np.zeros(4)), np.zeros(4))
    assert p.value(np.zeros(4)) == 0.0
    x = np.array([1.0, -2.0, 0.5, 3.0])
    dx = np.array([0.1, 0.0, -0.2, 1.0])
    # the quadratic has an exact first-order expansion of its gradient
    np.testing.assert_array_equal(p.taylor_gradient(x, dx, 2), p.gradient(x + dx))
    with pytest.raises(ValueError):
        prob.quadratic_problem(4, conditioning=0.5)


@pytest.mark.parametrize("name", ["datafit", "robust", "quadratic"])
def test_stacked_points_give_each_row_its_own_bits(name):
    """value and gradient on a stack (S, q, n) equal row-by-row calls, at
    one row and at S * q rows."""
    n = 50
    if name == "quadratic":
        p = prob.quadratic_problem(n, conditioning=30.0)
    else:
        make = prob.datafit_problem if name == "datafit" else prob.robust_problem
        p = make(prob.generate_synthetic(n, seed=5))
    rng = np.random.default_rng(1)
    for shape in [(1, n), (4, 3, n), (16, n)]:
        X = rng.standard_normal(shape) * 0.3
        G, F = p.gradient(X), p.value(X)
        assert G.shape == shape and F.shape == shape[:-1]
        for idx in np.ndindex(*shape[:-1]):
            assert np.array_equal(G[idx], p.gradient(X[idx]))
            assert F[idx] == p.value(X[idx])
    assert type(p.value(np.ones(n))) is float


def test_stacked_noise_broadcasts_one_draw_per_point():
    p = prob.quadratic_problem(4, conditioning=2.0)
    X = np.array([[[0.1, 0.2, 0.3, 0.4], [2.0, 0.0, 1.0, 0.0]],
                  [[0.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5]]])  # (q=2, S=2, n)
    for kind, xi in [("scalar-gaussian-envelope", np.array([0.7, -1.3])),
                     ("elementwise-gaussian-envelope", np.array([[0.1, -0.2, 0.3, 1.0],
                                                                  [2.0, 0.5, -1.0, 0.0]]))]:
        noise = prob.NoiseModel(kind, 3.0)
        G = prob.stochastic_grad(p, noise, X, prob.Sample(xi, (0, 1), 0))
        for t in range(2):
            for s in range(2):
                want = prob.stochastic_grad(p, noise, X[t, s], prob.Sample(xi[s], s, 0))
                assert np.array_equal(G[t, s], want)
    with pytest.raises(ValueError, match="one scalar draw per point"):
        prob.stochastic_grad(p, prob.NoiseModel("scalar-gaussian-envelope", 1.0), X,
                             prob.Sample(np.ones((2, 2, 4)), 0, 0))


def test_problem_rejects_wrong_shape():
    p = prob.quadratic_problem(3)
    with pytest.raises(ValueError):
        p.value(np.zeros(4))
    with pytest.raises(ValueError):
        p.gradient(np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        prob.NoiseModel(kind="bogus", sigma_tilde=1.0)
    with pytest.raises(ValueError):
        prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=0.0)
    prob.NoiseModel()  # none kind needs no sigma


def test_envelope_saturates_and_vanishes():
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=3.0)
    assert nm.envelope_scale(np.array([2.0, 2.0])) == 3.0  # ||x|| >= 1
    assert nm.envelope_scale(np.zeros(2)) == 0.0
    quarter = nm.envelope_scale(np.array([0.25, 0.0]))
    assert math.isclose(quarter, 3.0 * 0.5, rel_tol=1e-15)


def test_noise_vanishes_at_origin_for_any_draw():
    p = prob.quadratic_problem(3)
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=100.0)
    sample = prob.Sample(xi=1e6, run_seed=0, k=0)
    np.testing.assert_array_equal(
        prob.stochastic_grad(p, nm, np.zeros(3), sample), p.gradient(np.zeros(3))
    )


def test_apply_noise_algebra():
    g = np.array([1.0, 2.0, 3.0])
    x = np.array([4.0, 0.0, 0.0])  # ||x|| >= 1, envelope = sigma
    scalar = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    out = prob.apply_noise(g, scalar, x, 0.5)
    np.testing.assert_array_equal(out, g + 1.0)

    element = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=2.0)
    xi = np.array([1.0, -1.0, 0.0])
    out = prob.apply_noise(g, element, x, xi)
    np.testing.assert_array_equal(out, g + 2.0 * xi)
    with pytest.raises(ValueError):
        prob.apply_noise(g, element, x, np.ones(2))


def test_none_kind_returns_exact_gradient():
    p = prob.quadratic_problem(3, conditioning=2.0)
    nm = prob.NoiseModel()
    x = np.array([1.0, 1.0, 1.0])
    s = prob.draw_sample(nm, 3, run_seed=9, k=0)
    np.testing.assert_array_equal(prob.stochastic_grad(p, nm, x, s), p.gradient(x))


def test_draw_sample_deterministic_per_iteration():
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=1.0)
    a = prob.draw_sample(nm, 5, run_seed=3, k=7)
    b = prob.draw_sample(nm, 5, run_seed=3, k=7)
    c = prob.draw_sample(nm, 5, run_seed=3, k=8)
    assert a.xi == b.xi
    assert a.xi != c.xi
    el = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=1.0)
    v = prob.draw_sample(el, 5, run_seed=3, k=7)
    assert np.asarray(v.xi).shape == (5,)


def test_kind_mismatch_rejected():
    p = prob.quadratic_problem(2)
    scalar = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=1.0)
    wrong = prob.draw_sample(
        prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=1.0), 2, 0, 0
    )
    with pytest.raises(ValueError):
        prob.stochastic_grad(p, scalar, np.ones(2), wrong)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_generate_synthetic_shapes_and_label_noise():
    ds = prob.generate_synthetic(2000, seed=13)
    assert ds.m == ds.n == 2000
    # reproduce the construction to recover the planted solution
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2000, 2000))
    xstar = rng.standard_normal(2000)
    np.testing.assert_array_equal(ds.features, a)
    resid = ds.targets - prob.sigmoid(a @ xstar)
    assert 0.09 <= resid.std() <= 0.11  # labels carry 0.1-scaled gaussian noise


def test_dataset_is_read_only():
    ds = prob.generate_synthetic(5, seed=0)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


def test_save_then_load_rescales_to_unit_box(tmp_path):
    d = prob.Dataset(
        np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]]),
        np.array([1.0, 3.0, 5.0]),
        "manual",
    )
    path = tmp_path / "toy.csv"
    prob.save_dataset(d, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,target"
    assert "5.0" in text  # saved raw, not rescaled

    back = prob.load_csv_dataset(path)
    np.testing.assert_array_equal(back.features[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(back.features[:, 1], [0.0, 0.0, 0.0])  # constant -> 0
    np.testing.assert_array_equal(back.targets, [0.0, 0.5, 1.0])


def test_load_csv_target_by_index(tmp_path):
    path = tmp_path / "idx.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
    ds = prob.load_csv_dataset(path, target_column=0)
    assert ds.n == 2
    np.testing.assert_array_equal(ds.targets, [0.0, 0.5, 1.0])


def test_load_csv_errors_name_the_offender(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x1,x2,target\n1,2,3\n4,5\n")
    with pytest.raises(prob.DatasetFormatError, match="row 3"):
        prob.load_csv_dataset(ragged)

    no_target = tmp_path / "no_target.csv"
    no_target.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(prob.DatasetFormatError, match="target"):
        prob.load_csv_dataset(no_target)
