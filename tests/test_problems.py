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
    with pytest.raises(ValueError, match="^expansion order must be >= 1, got 0$"):
        p.taylor_gradient(x, dx, 0)
    with pytest.raises(ValueError):
        prob.quadratic_problem(4, conditioning=0.5)
    with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
        prob.quadratic_problem(0)


@pytest.mark.parametrize("conditioning", [math.inf, -math.inf, math.nan])
def test_quadratic_problem_refuses_a_non_finite_conditioning(conditioning):
    with pytest.raises(ValueError, match="conditioning must be finite"):
        prob.quadratic_problem(4, conditioning=conditioning)


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
    _rows_alone(p, n)


@pytest.mark.parametrize("make", [prob.datafit_problem, prob.robust_problem])
def test_wide_problems_give_each_row_its_own_bits(make):
    """At order 300 both A x and A^T r go through row blocks (rows = 108,
    with a 192-row last block); a stacked call is still row-by-row calls."""
    _rows_alone(make(prob.generate_synthetic(300, seed=5)), 300)


def _rows_alone(p, n):
    rng = np.random.default_rng(1)
    for shape in [(1, n), (4, 3, n), (16, n)]:
        X = rng.standard_normal(shape) * 0.3
        G, F = p.gradient(X), p.value(X)
        assert G.shape == shape and F.shape == shape[:-1]
        for idx in np.ndindex(*shape[:-1]):
            assert np.array_equal(G[idx], p.gradient(X[idx]))
            assert F[idx] == p.value(X[idx])
    assert type(p.value(np.ones(n))) is float


# m x n with m * n below 460800, the size from which OpenBLAS splits one
# matrix-vector product across threads: a split at a row that is not a
# multiple of 4 gives the whole product's row there other bits, so only
# shapes it never splits compare with the whole product on any host.
@pytest.mark.parametrize("m, n", [
    (216, 300), (217, 300), (218, 300), (219, 300),  # rows = 108: 2 blocks, m = 0..3 mod 4
    (325, 300),  # 3 * 108 + 1: a 1-row tail, were it left alone
    (215, 300),  # just under 2 * rows: one product
    (2 * 32768 + 1, 1), (7, 1),  # n = 1: rows = 32768
])
def test_blocked_matvec_is_each_product_bit_for_bit(m, n):
    M = np.random.default_rng(m).standard_normal((m, n))
    rng = np.random.default_rng(n)
    for shape in [(n,), (5, n), (3, 2, n)]:
        X = rng.standard_normal(shape)
        got = prob._matvec(M, X)
        assert got.shape == shape[:-1] + (m,)
        assert np.array_equal(got, (M @ X[..., None])[..., 0])
        for idx in np.ndindex(*shape[:-1]):
            assert np.array_equal(got[idx], M @ X[idx])


def test_stacked_noise_broadcasts_one_draw_per_point():
    p = prob.quadratic_problem(4, conditioning=2.0)
    X = np.array([[[0.1, 0.2, 0.3, 0.4], [2.0, 0.0, 1.0, 0.0]],
                  [[0.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.5, -0.5]]])  # (q=2, S=2, n)
    for kind, xi in [("scalar-gaussian-envelope", np.array([0.7, -1.3])),
                     ("elementwise-gaussian-envelope", np.array([[0.1, -0.2, 0.3, 1.0],
                                                                  [2.0, 0.5, -1.0, 0.0]]))]:
        noise = prob.NoiseModel(kind, 3.0)
        G = prob.stochastic_grad(p, noise, X, xi)
        for t in range(2):
            for s in range(2):
                want = prob.stochastic_grad(p, noise, X[t, s], xi[s])
                assert np.array_equal(G[t, s], want)
    with pytest.raises(ValueError, match="one scalar draw per point"):
        prob.stochastic_grad(p, prob.NoiseModel("scalar-gaussian-envelope", 1.0), X,
                             np.ones((2, 2, 4)))


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
    with pytest.raises(ValueError, match="^sigma_tilde must be nonnegative$"):
        prob.NoiseModel(kind="none", sigma_tilde=-1.0)
    prob.NoiseModel()  # none kind needs no sigma


@pytest.mark.parametrize("kind", prob.NOISE_KINDS)
@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_noise_model_refuses_a_non_finite_sigma(kind, sigma):
    with pytest.raises(ValueError, match="sigma_tilde must be finite"):
        prob.NoiseModel(kind=kind, sigma_tilde=sigma)


def test_envelope_saturates_and_vanishes():
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=3.0)
    assert nm.envelope_scale(np.array([2.0, 2.0])) == 3.0  # ||x|| >= 1
    assert nm.envelope_scale(np.zeros(2)) == 0.0
    quarter = nm.envelope_scale(np.array([0.25, 0.0]))
    assert math.isclose(quarter, 3.0 * 0.5, rel_tol=1e-15)


def test_noise_vanishes_at_origin_for_any_draw():
    p = prob.quadratic_problem(3)
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=100.0)
    np.testing.assert_array_equal(
        prob.stochastic_grad(p, nm, np.zeros(3), 1e6), p.gradient(np.zeros(3))
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
    xi = prob.draw_sample(nm, 3, run_seed=9, k=0)
    assert xi == 0.0 and type(xi) is float
    np.testing.assert_array_equal(prob.stochastic_grad(p, nm, x, xi), p.gradient(x))


def test_draw_sample_deterministic_per_iteration():
    nm = prob.NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=1.0)
    a = prob.draw_sample(nm, 5, run_seed=3, k=7)
    b = prob.draw_sample(nm, 5, run_seed=3, k=7)
    c = prob.draw_sample(nm, 5, run_seed=3, k=8)
    assert a == b
    assert a != c
    # the draw is the (seed, k) generator's first output, bit for bit
    assert type(a) is float and a == np.random.default_rng((3, 7)).standard_normal()
    el = prob.NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=1.0)
    v = prob.draw_sample(el, 5, run_seed=3, k=7)
    assert np.asarray(v).shape == (5,)
    assert np.array_equal(v, np.random.default_rng((3, 7)).standard_normal(5))


def _stacked_draws(noise, dim, seeds, k0, k1):
    """draw_sample stacked (k, seed), the definition draw_block must equal."""
    draws = [[prob.draw_sample(noise, dim, s, k) for s in seeds] for k in range(k0, k1)]
    shape = (k1 - k0, len(seeds)) + ((dim,) if noise.kind == prob.NOISE_KINDS[2] else ())
    return np.array(draws, dtype=float).reshape(shape)


_RANDOM_SEEDS = [int(s) for s in np.random.default_rng(19).integers(0, 2**32, size=4)]


@pytest.mark.parametrize("kind", prob.NOISE_KINDS[1:])
@pytest.mark.parametrize("dim", [1, 2, 7])
@pytest.mark.parametrize(
    "seeds, k0, k1",
    [
        ([0, 1, 2**31 - 1, 2**32 - 1] + _RANDOM_SEEDS, 0, 40),
        ([0, 1, 2**31 - 1, 2**32 - 1] + _RANDOM_SEEDS, 2**16 - 9, 2**16 + 9),
        ([0, 1, 2**31 - 1, 2**32 - 1] + _RANDOM_SEEDS, 2**32 - 12, 2**32),
        ([5, 2**32, 0, 2**40, 2**64 + 3, 2**32 - 1], 3, 20),  # pair by pair
        ([0, 7, 2**32 - 1], 11, 11),
    ],
    ids=["from-0", "across-2^16", "to-2^32", "wide-seeds", "empty"],
)
def test_draw_block_is_stacked_draw_sample_bit_for_bit(kind, dim, seeds, k0, k1):
    noise = prob.NoiseModel(kind, 1.0)
    block, expected = prob.draw_block(noise, dim, seeds, k0, k1), _stacked_draws(
        noise, dim, seeds, k0, k1)
    assert block.shape == (k1 - k0, len(seeds)) + ((dim,) if kind == prob.NOISE_KINDS[2] else ())
    assert block.dtype == np.float64 and block.tobytes() == expected.tobytes()


def test_draw_block_without_noise_is_zeros():
    block = prob.draw_block(prob.NoiseModel(), 4, [0, 3, 2**64], 5, 12)
    assert block.shape == (7, 3) and block.tobytes() == np.zeros((7, 3)).tobytes()
    assert prob.draw_block(prob.NoiseModel(), 4, [1], 3, 3).shape == (0, 1)


@pytest.mark.parametrize("kind", prob.NOISE_KINDS[1:])
def test_draw_block_raises_what_draw_sample_raises_for_a_negative_seed(kind):
    noise = prob.NoiseModel(kind, 1.0)
    with pytest.raises(Exception) as alone:
        prob.draw_sample(noise, 3, -1, 4)
    with pytest.raises(Exception) as block:
        prob.draw_block(noise, 3, [2, -1], 4, 6)
    assert type(block.value) is type(alone.value)
    assert str(block.value) == str(alone.value)


def test_the_seed_holder_gives_only_what_pcg64_asks_for():
    held = prob._hashed()(np.arange(4, dtype=np.uint64))
    assert held.generate_state(4, np.uint64) is held.state
    for request in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="holds generate_state"):
            held.generate_state(*request)


def test_stochastic_grad_refuses_a_point_of_another_dimension():
    """The shape check is the problem's gradient's, for every problem, with
    and without noise: a ValueError naming (..., dim)."""
    data = prob.generate_synthetic(6, seed=1)
    for p in (prob.datafit_problem(data), prob.robust_problem(data), prob.quadratic_problem(6)):
        for noise in (prob.NoiseModel(), prob.NoiseModel("scalar-gaussian-envelope", 1.0)):
            for x in (np.ones(5), np.ones((2, 7))):
                with pytest.raises(ValueError, match=r"problem expects \(\.\.\., 6\)"):
                    prob.stochastic_grad(p, noise, x, 0.0)


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


def test_dataset_refuses_non_finite_values():
    with pytest.raises(ValueError, match=r"features must be finite, got nan at index \(0, 1\)"):
        prob.Dataset(np.array([[1.0, np.nan], [0, 1]]), np.array([0.0, np.inf]), "manual")
    with pytest.raises(ValueError, match=r"targets must be finite, got -inf at index \(1,\)"):
        prob.Dataset(np.eye(2), np.array([0.0, -np.inf]), "manual")


def test_dataset_refuses_bad_shapes():
    with pytest.raises(ValueError, match="^features must be a nonempty 2-d matrix$"):
        prob.Dataset(np.ones(3), np.ones(3), "manual")
    with pytest.raises(ValueError, match=r"^targets have shape \(3,\), expected \(2,\)$"):
        prob.Dataset(np.eye(2), np.ones(3), "manual")
    with pytest.raises(ValueError, match="^dataset size must be >= 1, got 0$"):
        prob.generate_synthetic(0, seed=0)


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

    path = tmp_path / "bad.csv"
    for text, target, message in (
            ("", "target", "file is empty"),
            ("a,b,target\n", "target", "no data rows after the header"),
            ("a,b,c\n1,2,3\n", 3, "target column index 3 outside 0..2"),
            ("a,b,target\n1,2,3\n4,x,6\n", "target", "non-numeric value 'x' at row 3, column 'b'")):
        path.write_text(text)
        with pytest.raises(prob.DatasetFormatError) as err:
            prob.load_csv_dataset(path, target_column=target)
        assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("target", ["target", 0])
def test_load_csv_needs_a_feature_column(tmp_path, target):
    path = tmp_path / "target_only.csv"
    path.write_text("target\n1\n2\n3\n")
    with pytest.raises(prob.DatasetFormatError) as err:
        prob.load_csv_dataset(path, target_column=target)
    assert str(err.value) == f"{path}: no feature columns besides the target"


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", " NaN"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"a,b,target\n1,2,3\n4,{cell},6\n")
    with np.errstate(all="raise"):  # refused before any rescaling
        with pytest.raises(prob.DatasetFormatError) as err:
            prob.load_csv_dataset(path)
    assert str(err.value) == f"{path}: non-finite value {cell.strip()!r} at row 3, column 'b'"
