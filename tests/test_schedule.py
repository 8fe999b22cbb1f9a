import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momex.schedule as sched
import momex.verify as ver


# ---------------------------------------------------------------------------
# pinned first-iteration values
#
# Reference decimals were produced with a 50-digit decimal-arithmetic oracle
# and rounded to the nearest double. The p=3 path reproduces them bitwise;
# the general path accumulates through exp/log so it gets a 1-2 ulp slack.
# ---------------------------------------------------------------------------

def test_p3_first_iteration_pinned():
    pm = ver.params_p3(0)
    assert pm.eta[0] == 0.4634630567719698
    assert pm.gammas[0, 0] == 0.5172818579717866
    assert pm.gammas[0, 1] == 0.2586409289858933
    assert pm.thetas[0, 0] == 0.7669831953568296
    assert pm.thetas[0, 1] == -0.1248506686925215
    assert math.fsum(pm.thetas[0]) == 0.6421325266643081


def test_general_p4_first_iteration_pinned():
    pm = sched.params_general(0, 4)
    ref_eta = 0.38299158933399347
    ref_g = [0.4260901982142873, 0.21304509910714364, 0.1420300660714291]
    ref_th = [0.8630673985229299, -0.3147085297086443, 0.06414661970288199]
    assert math.isclose(pm.eta[0], ref_eta, rel_tol=1e-14)
    for got, ref in zip(pm.gammas[0], ref_g, strict=True):
        assert math.isclose(got, ref, rel_tol=1e-14)
    for got, ref in zip(pm.thetas[0], ref_th, strict=True):
        assert math.isclose(got, ref, rel_tol=1e-13)
    assert math.isclose(math.fsum(pm.thetas[0]), 0.6125054885171676, rel_tol=1e-13)


def test_general_specializes_to_p3():
    # the two code paths use different algebra, so exact agreement is not
    # expected, but 1e-14 relative is
    for k in (0, 1, 2, 3, 17, 100, 5000, 9999):
        a = sched.params_general(k, 3)
        b = ver.params_p3(k)
        assert math.isclose(a.eta[0], b.eta[0], rel_tol=1e-14)
        np.testing.assert_allclose(a.gammas, b.gammas, rtol=1e-14, atol=0)
        np.testing.assert_allclose(a.thetas, b.thetas, rtol=1e-14, atol=0)
        assert math.isclose(math.fsum(a.thetas[0]), math.fsum(b.thetas[0]), rel_tol=1e-14)


def test_init_params():
    pm = sched.init_params(3)
    assert pm.k0 == -1
    assert pm.eta.shape == (1,) and math.isnan(pm.eta[0])
    np.testing.assert_array_equal(pm.gammas, np.ones((1, 3)))
    np.testing.assert_array_equal(pm.thetas, np.full((1, 3), 1.0 / 3.0))
    assert math.fsum(pm.thetas[0]) == 1.0
    with pytest.raises(ValueError, match="^extrapolation count must be >= 1, got 0$"):
        sched.init_params(0)


# ---------------------------------------------------------------------------
# weight system
# ---------------------------------------------------------------------------

def _system_residual(gammas, thetas):
    """Largest relative defect of sum_t theta_t / gamma_t^r = 1, r=1..q."""
    worst = 0.0
    for r in range(1, len(gammas) + 1):
        lhs = math.fsum(t / g**r for t, g in zip(thetas, gammas))
        worst = max(worst, abs(lhs - 1.0))
    return worst


@st.composite
def separated_gammas(draw):
    q = draw(st.integers(min_value=1, max_value=5))
    vals = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.999),
            min_size=q,
            max_size=q,
            unique=True,
        )
    )
    vals = sorted(vals, reverse=True)
    gaps = [a - b for a, b in zip(vals, vals[1:])]
    if gaps and min(gaps) < 5e-3:
        # nearly coincident nodes make the interpolation weights blow up;
        # the production schedules keep gamma_t = gamma_1/t, far apart
        return None
    return np.array(vals)


@given(separated_gammas())
@settings(max_examples=200, deadline=None)
def test_closed_form_satisfies_system(gammas):
    if gammas is None:
        return
    thetas = sched.solve_weights_closed_form(gammas)
    assert _system_residual(gammas, thetas) <= 1e-9 * max(1.0, np.abs(thetas).max())


@given(separated_gammas())
@settings(max_examples=200, deadline=None)
def test_sum_identity_against_elementwise(gammas):
    if gammas is None:
        return
    thetas = sched.solve_weights_closed_form(gammas)
    direct = math.fsum(thetas)
    closed = ver.weight_sum_closed_form(gammas)
    product = 1.0 - math.prod(1.0 - g for g in gammas)
    assert math.isclose(closed, direct, rel_tol=1e-12, abs_tol=1e-15)
    assert math.isclose(closed, product, rel_tol=1e-12, abs_tol=1e-15)


def test_weight_inputs_restricted_to_open_unit_interval():
    # gamma = 1 only ever appears in the warm-start convention, which
    # bypasses the solver, so the solver rejects the boundary outright
    for bad in ([1.0, 0.4], [1.0], [0.0, 0.4], [-0.2]):
        with pytest.raises(ValueError):
            sched.solve_weights_closed_form(np.array(bad))
        with pytest.raises(ValueError):
            ver.weight_sum_closed_form(np.array(bad))


def test_weight_sum_rounded_inputs():
    # by hand: 1 - (1 - 0.517281)(1 - 0.258640) = 1 - 0.482719 * 0.741360
    got = ver.weight_sum_closed_form(np.array([0.517281, 0.258640]))
    assert math.isclose(got, 0.6421314, abs_tol=1e-6)


def test_q1_collapses_to_gamma():
    g = np.array([0.37])
    th = sched.solve_weights_closed_form(g)
    assert th[0] == g[0]
    assert th is not g


def test_closed_form_matches_dense_solve():
    gammas = np.array([0.9, 0.6, 0.3])
    closed = sched.solve_weights_closed_form(gammas)
    dense = ver.solve_weights_linear(gammas)
    np.testing.assert_allclose(closed, dense, rtol=1e-8)


def test_dense_solve_guards():
    with pytest.raises(ValueError, match="q <= 8"):
        ver.solve_weights_linear(1.0 / (np.arange(1, 10) * 2.0))
    with pytest.raises(ver.IllConditionedSystem):
        ver.solve_weights_linear(np.array([0.5, 0.5 - 1e-14]))


def test_stacked_dense_solve_matches_per_bundle():
    for p in range(2, 7):
        gammas = np.array([sched.params_general(k, p).gammas[0] for k in range(0, 5000, 37)])
        stacked = ver.solve_weights_linear(gammas)
        assert stacked.shape == gammas.shape
        for row, g in zip(stacked, gammas):
            assert row.tobytes() == ver.solve_weights_linear(g).tobytes()


def test_stacked_dense_solve_names_the_bad_bundle():
    ill = np.array([[0.9, 0.6], [0.8, 0.4], [0.7, 0.3], [0.5, 0.5 - 1e-14], [0.6, 0.2]])
    with pytest.raises(ver.IllConditionedSystem, match="bundle 3:"):
        ver.solve_weights_linear(ill)
    flat = ill.copy()
    flat[3] = [0.5, 0.5]
    flat[4] = [0.2, 0.6]
    with pytest.raises(ValueError, match="bundle 3: .*strictly decreasing"):
        ver.solve_weights_linear(flat)
    outside = ill.copy()
    outside[1] = [1.0, 0.4]
    with pytest.raises(ValueError, match="bundle 1: .*\\(0,1\\)"):
        ver.solve_weights_linear(outside)
    with pytest.raises(ValueError, match="q <= 8"):
        ver.solve_weights_linear(np.tile(1.0 / (np.arange(1, 10) * 2.0), (3, 1)))
    with pytest.raises(ValueError, match="nonempty"):
        ver.solve_weights_linear(np.empty((0, 2)))


def test_dense_solve_refuses_just_past_the_condition_limit():
    # at gammas (0.5, 0.5 - delta) the equilibrated q = 2 system's condition
    # is about 2 / delta: 1.98e-12 lands just past 1e12 and 2.02e-12 just
    # inside, where the 1-norm bound cannot clear it
    past, inside = np.array([0.5, 0.5 - 1.98e-12]), np.array([0.5, 0.5 - 2.02e-12])
    rows = (1.0 / np.stack([past, inside]))[:, None, :] ** np.array([1.0, 2.0])[None, :, None]
    eq = rows / rows.max(axis=2)[:, :, None]
    cond = np.linalg.cond(eq)
    assert cond[1] < ver.COND_LIMIT < cond[0] and 2 * np.linalg.cond(eq[1], 1) > ver.COND_LIMIT / 2
    stack = np.array([[0.9, 0.6], inside, [0.7, 0.3], past, [0.6, 0.2]])
    with pytest.raises(ver.IllConditionedSystem) as err:
        ver.solve_weights_linear(stack)
    assert str(err.value) == (f"bundle 3: equilibrated system condition {cond[0]:.3e} "
                              f"exceeds {ver.COND_LIMIT:.0e}")
    with pytest.raises(ver.IllConditionedSystem) as err:
        ver.solve_weights_linear(past)
    assert str(err.value).startswith(f"equilibrated system condition {cond[0]:.3e} ")
    solved = ver.solve_weights_linear(np.delete(stack, 3, axis=0))
    assert solved[1].tobytes() == ver.solve_weights_linear(inside).tobytes()


def _closed_form_numpy_scalars(gammas):
    # the closed form as it read when it multiplied numpy scalars
    g = np.asarray(gammas, dtype=float)
    q = g.size
    if q == 1:
        return g.copy()
    th = np.empty(q)
    for i in range(q):
        f = 1.0
        for s in range(q):
            if s != i:
                f *= (g[s] - 1.0) / (g[s] - g[i])
        th[i] = g[i] ** q * f
    return th


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
@settings(max_examples=300, deadline=None)
def test_closed_form_bitwise_equals_numpy_scalar_loop(vals):
    gammas = np.array(sorted(vals, reverse=True))
    with np.errstate(all="ignore"):
        ref = _closed_form_numpy_scalars(gammas)
    assert sched.solve_weights_closed_form(gammas).tobytes() == ref.tobytes()


def test_validate_schedule_weights():
    diag0 = ver.validate(ver.params_p3(0))
    assert diag0.residual <= 1e-12
    for p in (2, 3, 4, 5, 6):
        for k in (0, 5, 1000):
            diag = ver.validate(sched.params_general(k, p))
            assert diag.residual <= 1e-9
            assert diag.theta_sum_in_unit
            assert diag.signs_alternate


def test_validate_flags_broken_sign_pattern():
    pm = sched.params_general(10, 4)
    doctored = sched.ParamsBlock(pm.k0, pm.eta, pm.gammas, np.abs(pm.thetas))
    assert not ver.validate(doctored).signs_alternate


def test_validate_takes_the_weight_sum_from_the_thetas():
    # the unit-interval flag reads math.fsum of the thetas row, as the kernel
    # does; a row whose sum fsum refuses (inf - inf) is flagged, not raised
    def row(thetas):
        return sched.ParamsBlock(3, np.array([0.1]), np.array([[0.6, 0.3]]), np.array([thetas]))

    with np.errstate(invalid="ignore"):  # the residual of an infinite row is NaN
        flags = [ver.validate(row(t)).theta_sum_in_unit
                 for t in ([0.6, -0.2], [0.9, 0.3], [0.9, math.nan], [math.inf, -math.inf])]
    assert flags == [True, False, False, False]


# ---------------------------------------------------------------------------
# schedule configs
# ---------------------------------------------------------------------------

def test_builtin_config_requires_matching_q():
    with pytest.raises(ValueError):
        sched.ScheduleConfig(p=3, q=1)
    with pytest.raises(ValueError):
        sched.ScheduleConfig(p=1, q=1)


# ---------------------------------------------------------------------------
# potential weights, theorem constants, thresholds
# ---------------------------------------------------------------------------

def test_potential_weight_pinned():
    assert sched.potential_weight(0, 3) == 1.2457309396155174
    assert sched.potential_weight(0, 2) == 1.1040895136738123


def test_potential_weight_growth_window():
    for p in (2, 3, 5):
        prev = sched.potential_weight(0, p)
        for k in range(1, 400):
            cur = sched.potential_weight(k, p)
            assert prev <= cur <= 2.0 * prev
            prev = cur


def test_potential_inequality_holds_on_prefix():
    for p in (2, 3, 4, 5):
        assert all(ver.check_potential_inequality(k, p) for k in range(2000))


def test_theorem_constant_zero_pins():
    assert sched.theorem_constant(3, 0.0, 0.0, 0.0, 0.0) == 8.0
    assert sched.theorem_constant(2, 0.0, 0.0, 0.0, 0.0) == 24.0


def test_theorem_constant_monotone_in_each_input():
    base = sched.theorem_constant(4, 1.0, 1.0, 1.0, 1.0)
    for bump in range(4):
        args = [1.0, 1.0, 1.0, 1.0]
        args[bump] += 0.5
        assert sched.theorem_constant(4, *args) > base


def test_iteration_threshold():
    assert sched.iteration_threshold(2, 1e-6, 0.999) == 4.0  # floor at 2p
    assert sched.iteration_threshold(3, 1e308, 1e-3) == math.inf
    loose = sched.iteration_threshold(3, 5.0, 0.5)
    tight = sched.iteration_threshold(3, 5.0, 0.1)
    assert tight > loose > 6.0
    with pytest.raises(ValueError):
        sched.iteration_threshold(3, 5.0, 1.0)
    with pytest.raises(ValueError):
        sched.iteration_threshold(3, 5.0, 0.0)


@pytest.mark.parametrize("fn, args, message", [
    ("theorem_constant", (3, 1.0, math.nan, 1.0, 1.0), "sigma must be nonnegative, got nan"),
    ("theorem_constant", (4, -1.0, 1.0, 1.0, 1.0), "f0_minus_flow must be nonnegative, got -1.0"),
    ("theorem_constant", (2, 1.0, 1.0, 1.0, math.nan), "Lp must be nonnegative, got nan"),
    ("iteration_threshold", (3, math.nan, 0.1), "M must be positive, got nan"),
    ("iteration_threshold", (3, 0.0, 0.1), "M must be positive, got 0.0"),
])
def test_reporting_constants_refuse_bad_values(fn, args, message):
    """A NaN is refused as a negative or zero value is, by the argument's name."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        getattr(sched, fn)(*args)


# ---------------------------------------------------------------------------
# vectorized sweeps agree with the scalar path
# ---------------------------------------------------------------------------

def test_schedule_arrays_match_scalar_path():
    ks = np.array([0, 1, 7, 100, 12345])
    for p in (2, 3, 5):
        eta, gam, th = ver.schedule_arrays(p, ks)
        assert gam.shape == (p - 1, ks.size)
        for j, k in enumerate(ks):
            pm = sched.params_general(int(k), p)
            assert eta[j] == pm.eta[0]
            np.testing.assert_array_equal(gam[:, j], pm.gammas[0])
            np.testing.assert_array_equal(th[:, j], pm.thetas[0])
    with pytest.raises(ValueError, match="^iteration indices must be >= 0$"):
        ver.schedule_arrays(3, [-1])


def test_p3_arrays_match_scalar_path():
    # the sweep shares one log per k while the scalar path calls pow
    # directly, so agreement is to a couple of ulps, not bitwise
    ks = np.array([0, 3, 999])
    eta, gam, th = ver.p3_arrays(ks)
    for j, k in enumerate(ks):
        pm = ver.params_p3(int(k))
        assert math.isclose(eta[j], pm.eta[0], rel_tol=5e-15)
        np.testing.assert_allclose(gam[:, j], pm.gammas[0], rtol=5e-15, atol=0)
        np.testing.assert_allclose(th[:, j], pm.thetas[0], rtol=5e-14, atol=0)


# ---------------------------------------------------------------------------
# the block stream of bundles is bit for bit the scalar formula
# ---------------------------------------------------------------------------

def _params_general_literal(k, p):
    # the order-p bundle as the scalar path computed it, one k at a time on
    # Python floats: the reference params_block must reproduce bit for bit
    lg = math.log(float(k) + p)
    d = 3.0 * p + 1.0
    c = math.exp(2.0 * p / d * lg)
    eta = math.exp(-(2.0 * p + 1.0) / d * lg)
    gammas = [1.0 / (t * c) for t in range(1, p)]
    q = len(gammas)
    thetas = []
    for i, gi in enumerate(gammas):
        f = 1.0
        for s, gs in enumerate(gammas):
            if s != i:
                f *= (gs - 1.0) / (gs - gi)
        thetas.append(gi**q * f)
    return eta, gammas, thetas, math.fsum(thetas)


@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("k0", [0, 250, 10**6 - 40, 2**40])
def test_params_block_bitwise_equals_scalar_formula(p, k0):
    k1 = k0 + 300  # from 250 the block crosses 255/256
    block = sched.params_block(p, k0, k1)
    assert block.k0 == k0
    assert block.eta.shape == (k1 - k0,)
    assert block.gammas.shape == block.thetas.shape == (k1 - k0, p - 1)
    for j, k in enumerate(range(k0, k1)):
        eta, gammas, thetas, theta_sum = _params_general_literal(k, p)
        assert block.eta[j] == eta and math.fsum(block.thetas[j]) == theta_sum
        assert block.gammas[j].tolist() == gammas and block.thetas[j].tolist() == thetas
        one = sched.params_general(k, p)
        assert (one.k0, one.eta.tolist(), one.gammas.tolist(), one.thetas.tolist(),
                math.fsum(one.thetas[0])) == (k, [eta], [gammas], [thetas], theta_sum)


@pytest.mark.parametrize("p", [2, 4, 6])
def test_params_block_rows_do_not_depend_on_the_split(p):
    k0, k1 = 1000, 1400
    whole = sched.params_block(p, k0, k1)
    for cuts in ([1001], [1255, 1256, 1257], [1100, 1100, 1399], list(range(1007, 1400, 97))):
        edges = [k0, *cuts, k1]
        parts = [sched.params_block(p, a, b) for a, b in zip(edges, edges[1:])]
        for field in ("eta", "gammas", "thetas"):
            joined = np.concatenate([getattr(part, field) for part in parts])
            assert joined.tobytes() == getattr(whole, field).tobytes()


def test_params_block_errors():
    for p in (1, 0, 2.0, 3.5):
        with pytest.raises(ValueError, match="smoothness order"):
            sched.params_block(p, 0, 5)
    with pytest.raises(ValueError, match="iteration index must be >= 0"):
        sched.params_block(3, -1, 5)
    with pytest.raises(ValueError, match="block end"):
        sched.params_block(3, 5, 4)
    with pytest.raises(OverflowError, match="64-bit float range"):
        sched.params_block(3, 10**400, 10**400 + 2)
    with pytest.raises(ValueError, match="iteration index must be >= 0"):
        sched.params_general(-1, 3)
    with pytest.raises(OverflowError, match="64-bit float range"):
        sched.params_general(10**400, 3)
    empty = sched.params_block(4, 7, 7)
    assert empty.gammas.shape == empty.thetas.shape == (0, 3)
