"""Independent oracles for the closed forms, bounds, and noise statistics.

Everything here re-derives its expected values from first principles
(defining equations, finite differences, Monte-Carlo estimates, analytic
second moments) rather than trusting the code under test. The dense linear
solve of the schedule's weight system (*), not the closed-form product, is
the reference for the weights. Checks are deterministic for a fixed seed,
own their RNG streams, and are independent of one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .problems import NoiseModel, SmoothProblem, stochastic_grad
from .schedule import (
    ParamsBlock,
    _as_gamma_stack,
    _check_index,
    _check_order,
    params_block,
    params_general,
    potential_weight,
)

__all__ = [
    "DENSE_Q_CAP",
    "COND_LIMIT",
    "CheckReport",
    "IllConditionedSystem",
    "WeightDiagnostics",
    "params_p3",
    "schedule_arrays",
    "p3_arrays",
    "solve_weights_linear",
    "weight_sum_closed_form",
    "validate",
    "check_potential_inequality",
    "finite_diff_grad",
    "gradient_check",
    "taylor_remainder_check",
    "lipschitz_estimate",
    "noise_unbiasedness_check",
    "noise_moment_check",
    "smoothness_ratio_check",
    "weight_residual_sweep",
    "dense_agreement_sweep",
    "sum_identity_sweep",
    "sum_identity_check",
    "schedule_cross_check",
    "bound_sweep",
    "p3_consistency_check",
]

# indices per sweep chunk: a (n,) temporary is 128 KiB and a (q, n) one at
# most 640 KiB, so a chunk's working set stays in a per-core L2 of 2-4 MiB;
# 2^14 and 2^15 were the fastest in a sweep of 2^11..2^17 (CHANGES.md). Every
# sweep result is elementwise work reduced by max or sum of integers, so
# none depends on this size.
_CHUNK = 1 << 14
# rows per params_block call, as in the optimizer's loop: whole-chunk blocks
# would put its (rows, q, q) temporaries of megabytes on the allocator's heap
_BUNDLE_ROWS = 256
# The reciprocal-power matrix of (*) is Vandermonde-like and its condition
# number explodes with q; the dense oracle refuses beyond this cap. The
# closed form has no such limit and is the path production code uses.
DENSE_Q_CAP = 8
COND_LIMIT = 1e12


class IllConditionedSystem(ValueError):
    """Raised when the dense weight solve cannot be trusted."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    worst_case is the check's headline number, oriented so that smaller is
    better; passed records whether it met the tolerance stated in detail.
    """

    name: str
    passed: bool
    worst_case: float
    samples: int
    detail: str


@dataclass(frozen=True)
class WeightDiagnostics:
    """How well a bundle satisfies (*) and its side conditions.

    residual is ||R theta - 1||_inf / (||R||_inf ||theta||_inf) with R the
    reciprocal-power matrix: the backward-stable normalization, comparable
    across iterations even though the reciprocal powers grow without bound.
    """

    residual: float
    theta_sum_in_unit: bool
    signs_alternate: bool


def _central_difference(values, x, h) -> np.ndarray:
    """Central-difference gradient (f(x+h_i e_i) - f(x-h_i e_i)) / (2h_i).

    values maps the (2n, n) stack of points, x + h_i e_i in rows 0..n-1 and
    x - h_i e_i in rows n..2n-1, to the 2n values of f at them; h is a
    scalar or a per-coordinate array of positive steps.
    """
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    if not np.all(h > 0.0):
        raise ValueError("finite-difference steps must be positive")
    e = np.diag(h)
    fx = np.asarray(values(np.concatenate([x + e, x - e])), dtype=float)
    return (fx[: x.size] - fx[x.size:]) / (2.0 * h)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h=1e-5) -> np.ndarray:
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / (2h) of a
    one-point callable f.

    h may be a scalar or a per-coordinate array of positive steps.
    """
    return _central_difference(lambda points: [f(z) for z in points], x, h)


def gradient_check(
    problem: SmoothProblem, n_points: int = 20, seed: int = 0, h: float = 1e-5
) -> CheckReport:
    """Analytic gradient against central differences at seeded points.

    Steps scale with the coordinate, h_i = h * max(1, |x_i|); the measure
    is ||fd - grad|| / ||grad||, worst over the points. Tolerance 1e-6.
    The 2n perturbed points of each x go to problem.value as one stack,
    which gives every row the bits it gets alone.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        x = rng.standard_normal(problem.dim)
        steps = h * np.maximum(1.0, np.abs(x))
        fd = _central_difference(problem.value, x, steps)
        g = problem.gradient(x)
        ng = float(np.linalg.norm(g))
        rel = float(np.linalg.norm(fd - g)) / ng if ng > 0.0 else math.inf
        worst = max(worst, rel)
    return CheckReport(
        name=f"gradient:{problem.name}",
        passed=worst <= 1e-6,
        worst_case=worst,
        samples=n_points,
        detail=f"worst ||fd-grad||/||grad|| over {n_points} points; tol 1e-6",
    )


def _fd_hessian_vec(problem: SmoothProblem, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    nd = float(np.linalg.norm(dx))
    eps = 1e-5 / max(1.0, nd)
    return (problem.gradient(x + eps * dx) - problem.gradient(x - eps * dx)) / (2.0 * eps)


def _expansion(problem: SmoothProblem, x: np.ndarray, dx: np.ndarray, order: int):
    """Order-`order` gradient expansion around x at x + dx."""
    if problem.taylor_gradient is not None:
        return problem.taylor_gradient(x, dx, order)
    if order == 1:
        return problem.gradient(x)
    if order == 2:
        return problem.gradient(x) + _fd_hessian_vec(problem, x, dx)
    raise ValueError(
        f"problem {problem.name!r} supports expansion orders 1 and 2, got {order}"
    )


def taylor_remainder_check(
    problem: SmoothProblem, x, y, order: int
) -> CheckReport:
    """Gradient Taylor remainder at one displacement.

    Measures r = ||grad f(x+dx) - T_order(x, dx)|| with dx = y - x, where
    T_order is the expansion with `order` derivative terms, and compares it
    against (C/order!) ||dx||^order when a certified constant C for that
    order is available (worst_case is then the signed excess r - bound,
    tolerance 1e-12 relative slack). Without a constant the check reports
    the ratio r/||dx||^order as an empirical estimate of C/order! and only
    requires it to be finite. Both sides are evaluated at the reconstructed
    point x + dx so the comparison sees the identical displacement.

    Raises:
        ValueError: order < 1, or order above what the problem supports.
    """
    x = np.asarray(x, dtype=float)
    dx = np.asarray(y, dtype=float) - x
    if order < 1:
        raise ValueError(f"expansion order must be >= 1, got {order}")
    t = _expansion(problem, x, dx, order)
    remainder = float(np.linalg.norm(problem.gradient(x + dx) - t))
    nd = float(np.linalg.norm(dx))
    c = problem.constants
    known = None
    if c is not None:
        if order == 1 and c.L1 is not None:
            known = c.L1
        elif order >= 2 and c.Lp is not None and (c.Lp == 0.0 or c.p == order):
            known = c.Lp
    if known is not None:
        bound = known / math.factorial(order) * nd**order
        excess = remainder - bound
        passed = excess <= 1e-12 * max(1.0, bound)
        detail = (
            f"remainder {remainder:.6e} vs bound {bound:.6e} "
            f"(order {order}, constant {known:g}); tol: excess <= 1e-12 rel"
        )
        return CheckReport(
            name=f"taylor:{problem.name}:order{order}",
            passed=passed,
            worst_case=excess,
            samples=1,
            detail=detail,
        )
    ratio = remainder / nd**order if nd > 0.0 else 0.0
    return CheckReport(
        name=f"taylor:{problem.name}:order{order}",
        passed=math.isfinite(ratio),
        worst_case=ratio,
        samples=1,
        detail=(
            f"no certified constant; remainder/||dx||^{order} = {ratio:.6e} "
            f"is an empirical estimate of the order-{order} constant over {order}!"
        ),
    )


def lipschitz_estimate(
    problem: SmoothProblem,
    order: int,
    n_pairs: int = 100,
    seed: int = 0,
    radius: float = 1.0,
) -> float:
    """Empirical smoothness constant from seeded pairs: an estimate, never
    a certified bound.

    order 1 maxes ||grad f(y) - grad f(x)|| / ||y - x||; order >= 2 maxes
    order! * remainder / ||y - x||^order over pairs with ||y - x|| <= radius.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_pairs):
        x = rng.standard_normal(problem.dim)
        d = rng.standard_normal(problem.dim)
        d *= radius * rng.uniform(0.1, 1.0) / float(np.linalg.norm(d))
        nd = float(np.linalg.norm(d))
        if order == 1:
            num = float(np.linalg.norm(problem.gradient(x + d) - problem.gradient(x)))
            best = max(best, num / nd)
        else:
            t = _expansion(problem, x, d, order)
            rem = float(np.linalg.norm(problem.gradient(x + d) - t))
            best = max(best, math.factorial(order) * rem / nd**order)
    return best


def _bridge_tolerance(scale: float) -> float:
    return 1e-10 * (1.0 + scale)


def _draw_sums(seed: int, n_draws: int, dim: int, centre=None) -> np.ndarray:
    """Column sums of the (n_draws, dim) normal draws xi of default_rng(seed), or of
    (xi - centre)**2, bit for bit np.add.reduce's over the whole array, one block of
    max(1, _CHUNK // dim) draws at a time: numpy adds a 2-D array's rows in order, so
    the sum so far rides in row 0 above each block; one column it sums pairwise."""
    rng = np.random.default_rng(seed)
    rows = n_draws if dim == 1 else max(1, _CHUNK // dim)  # one column: one block
    buf = np.empty((min(rows, n_draws) + 1, dim))
    for start in range(0, n_draws, rows):
        block = buf[1 : min(rows, n_draws - start) + 1]
        rng.standard_normal(out=block)
        if centre is not None:
            np.square(np.subtract(block, centre, out=block), out=block)
        buf[0] = np.add.reduce(buf[int(start == 0) : len(block) + 1], axis=0)
    return buf[0]


def noise_unbiasedness_check(
    problem: SmoothProblem,
    noise: NoiseModel,
    x,
    n_draws: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """E[G(x; xi)] = grad f(x), within 4 standard errors per coordinate.

    The perturbation is linear in the draw, so the coordinate z-scores
    reduce to z-scores of the draws themselves; the first few draws are
    pushed through the public oracle path to pin that reduction down. The
    draws are summed a block at a time and replayed for the spread about the
    mean (_draw_sums), so memory is one block, not n_draws x dim.
    """
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x)
    if noise.kind == "none":
        return CheckReport(
            name=f"unbiased:{noise.kind}",
            passed=True,
            worst_case=0.0,
            samples=0,
            detail="noiseless oracle is its own mean",
        )
    scale = noise.envelope_scale(x)
    if scale == 0.0:
        return CheckReport(
            name=f"unbiased:{noise.kind}",
            passed=True,
            worst_case=0.0,
            samples=0,
            detail="envelope vanishes at this point; oracle is exact",
        )
    if n_draws < 5:
        raise ValueError(f"need at least 5 draws, got {n_draws}")
    scalar = noise.kind == "scalar-gaussian-envelope"
    dim = 1 if scalar else problem.dim
    for row in np.random.default_rng(seed).standard_normal((5, dim)):
        draw = float(row[0]) if scalar else row
        got = stochastic_grad(problem, noise, x, draw)
        expect = g + scale * draw
        if float(np.max(np.abs(got - expect))) > _bridge_tolerance(
            float(np.max(np.abs(expect)))
        ):
            raise RuntimeError("draw reduction disagrees with the oracle path")
    mean = _draw_sums(seed, n_draws, dim) / n_draws
    std = np.sqrt(_draw_sums(seed, n_draws, dim, mean) / (n_draws - 1))
    # a scalar draw is shared by every coordinate, so its one z-score covers all
    z = float(np.max(np.abs(mean) * math.sqrt(n_draws) / std))
    if scalar:
        detail = "scalar draw; single z-score covers every coordinate; tol 4 SE"
    else:
        detail = f"worst coordinate z-score of {problem.dim}; tol 4 SE"
    return CheckReport(
        name=f"unbiased:{noise.kind}",
        passed=z <= 4.0,
        worst_case=z,
        samples=n_draws,
        detail=detail,
    )


def noise_moment_check(
    problem: SmoothProblem,
    noise: NoiseModel,
    x,
    y,
    n_draws: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte-Carlo E||G(y) - G(x)||^2 against its analytic value.

    For the scalar envelope kind the analytic second moment is
    ||grad f(y) - grad f(x)||^2 + n (scale(y) - scale(x))^2, and each
    squared norm is an exact quadratic in the draw, so the Monte-Carlo
    side reduces to sampling that scalar quadratic; the first draws are
    run through the public oracle to validate the reduction. Tolerance is
    3 standard errors.

    Raises:
        ValueError: non-scalar noise kind, or n_draws below 10^4.
    """
    if noise.kind != "scalar-gaussian-envelope":
        raise ValueError(f"moment identity check needs the scalar kind, got {noise.kind!r}")
    if n_draws < 10_000:
        raise ValueError(f"need at least 10^4 draws, got {n_draws}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dg = problem.gradient(y) - problem.gradient(x)
    ds = noise.envelope_scale(y) - noise.envelope_scale(x)
    a = float(dg @ dg)
    b = ds * float(dg.sum())
    c = problem.dim * ds * ds
    analytic = a + c
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n_draws)
    vals = a + 2.0 * b * xi + c * xi * xi
    for i in range(5):
        s = float(xi[i])
        d = stochastic_grad(problem, noise, y, s) - stochastic_grad(problem, noise, x, s)
        if abs(float(d @ d) - vals[i]) > _bridge_tolerance(a + c * (1.0 + xi[i] ** 2)):
            raise RuntimeError("quadratic reduction disagrees with the oracle path")
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(n_draws)
    # when both envelopes saturate, G(y) - G(x) is deterministic and the
    # sample SE collapses to summation roundoff; floor the denominator so
    # the z-score stays meaningful instead of dividing by ~1e-18
    floor = 1e-12 * max(1.0, abs(analytic))
    z = abs(mean - analytic) / max(se, floor)
    return CheckReport(
        name="moment-identity",
        passed=z <= 3.0,
        worst_case=z,
        samples=n_draws,
        detail=f"MC {mean:.6e} vs analytic {analytic:.6e}, SE {se:.3e}; tol 3 SE",
    )


def smoothness_ratio_check(
    problem: SmoothProblem,
    noise: NoiseModel,
    deltas: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> CheckReport:
    """Mean-squared smoothness blows up near 0: the analytic ratio

        ratio(d) = (||grad f(d e1) - grad f(0)||^2 + ||g(d e1) - g(0)||^2) / d^2

    must grow by a factor >= 1.9 whenever d is halved. A Lipschitz
    estimator would keep it bounded; the square-root envelope cannot.
    """
    if noise.kind == "none":
        raise ValueError("ratio check needs a gaussian noise kind")

    def ratio(d: float) -> float:
        z = np.zeros(problem.dim)
        yv = np.zeros(problem.dim)
        yv[0] = d
        dg = problem.gradient(yv) - problem.gradient(z)
        ds = noise.envelope_scale(yv) - noise.envelope_scale(z)
        return (float(dg @ dg) + problem.dim * ds * ds) / (d * d)

    growth = [ratio(d / 2.0) / ratio(d) for d in deltas]
    min_growth = min(growth)
    return CheckReport(
        name="ms-smoothness-ratio",
        passed=min_growth >= 1.9,
        worst_case=max(0.0, 1.9 - min_growth),
        samples=len(deltas),
        detail=f"growth per halving {[f'{g:.4f}' for g in growth]} at deltas {list(deltas)}; tol >= 1.9",
    )


def _p3_weights(c):
    """The literal order-3 (gammas, thetas) at c = (k+3)^(3/5), for a float
    or an array of them."""
    c2 = c * c
    return (1.0 / c, 0.5 / c), ((2.0 * c - 1.0) / c2, (1.0 - c) / (2.0 * c2))


def _p3_literal(k: int) -> tuple:
    """(eta, S, gamma_1, gamma_2, theta_1, theta_2), S the weight sum, of the
    literal order-3 bundle as plain floats, through the scalar libm."""
    lg = math.log(float(k) + 3.0)
    c = math.exp(3.0 / 5.0 * lg)
    (g1, g2), (t1, t2) = _p3_weights(c)
    # one rounded addition: math.fsum of the two thetas, bit for bit
    return math.exp(-7.0 / 10.0 * lg), t1 + t2, g1, g2, t1, t2


def params_p3(k: int) -> ParamsBlock:
    """Bundle of the third-order schedule in its literal form (an oracle),
    as a one-row block (k, eta, gammas, thetas).

        eta_k    = (k+3)^(-7/10)
        gamma_1  = (k+3)^(-3/5),          gamma_2 = gamma_1 / 2
        theta_1  = (2(k+3)^(3/5) - 1) / (k+3)^(6/5)
        theta_2  = (1 - (k+3)^(3/5)) / (2 (k+3)^(6/5))

    Agrees with params_general(k, 3) to a few ulp; the general path reaches
    the same thetas through the closed-form product instead of these reduced
    fractions.
    """
    _check_index(k)
    eta, _, g1, g2, t1, t2 = _p3_literal(k)
    return ParamsBlock(k, np.array([eta]), np.array([[g1, g2]]), np.array([[t1, t2]]))


def _as_indices(ks) -> np.ndarray:
    ks = np.asarray(ks, dtype=float)
    if ks.size and ks.min() < 0:
        raise ValueError("iteration indices must be >= 0")
    return ks


def _schedule_chunk(p: int, ks: np.ndarray):
    """lg = log(ks + p), c = (ks + p)^(2p/(3p+1)), and the gammas and thetas
    of the order-p schedule at ks, shaped (n,), (n,), (q, n), (q, n) with
    q = p - 1; each is computed once per chunk of indices.
    """
    _check_order(p)
    d = 3.0 * p + 1.0
    lg = np.log(ks + p)
    c = np.exp(2.0 * p / d * lg)
    q = p - 1
    t = np.arange(1, p, dtype=float)
    gam = 1.0 / (t[:, None] * c[None, :])
    gam_m1 = gam - 1.0
    th = np.empty_like(gam)
    for i in range(q):
        f = np.ones_like(c)
        for s in range(q):
            if s != i:
                f *= gam_m1[s] / (gam[s] - gam[i])
        th[i] = gam[i] ** q * f
    return lg, c, gam, th


def schedule_arrays(p: int, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized order-p schedule over an array of iteration indices.

    Returns (eta, gammas, thetas) shaped (n,), (q,n), (q,n) with q = p - 1.
    Same formulas as params_general; the vector exp/log kernels may differ
    from the scalar libm by an ulp, which the sweep tolerances absorb.
    """
    lg, _, gam, th = _schedule_chunk(p, _as_indices(ks))
    eta = np.exp(-(2.0 * p + 1.0) / (3.0 * p + 1.0) * lg)
    return eta, gam, th


def p3_arrays(ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized literal third-order schedule; see params_p3."""
    lg = np.log(_as_indices(ks) + 3.0)
    gam, th = _p3_weights(np.exp(3.0 / 5.0 * lg))
    return np.exp(-7.0 / 10.0 * lg), np.stack(gam), np.stack(th)


def solve_weights_linear(gammas) -> np.ndarray:
    """Dense-factorization oracle for (*), for one bundle or a stack.

    Takes one gamma vector (q,) or a stack (N, q) and returns thetas of the
    same shape. Builds the reciprocal-power matrices R[r,t] = (1/gamma_t)**r,
    equilibrates each row by its largest entry, and solves the scaled
    systems with one stacked factorization. The raw rows span many orders
    of magnitude, hence the q cap and the condition check on every
    equilibrated matrix (an SVD where a 1-norm bound does not clear it).
    Production code wants solve_weights_closed_form; this path exists so
    the closed form can be checked against an independent solver.

    Raises:
        ValueError: q above DENSE_Q_CAP or invalid gammas; for a stack the
            message names the first bad bundle.
        IllConditionedSystem: some equilibrated condition number above
            COND_LIMIT; for a stack the message names the first such bundle.
    """
    single = np.ndim(gammas) == 1
    g = _as_gamma_stack(gammas)
    q = g.shape[1]
    if q > DENSE_Q_CAP:
        raise ValueError(f"dense solve supports q <= {DENSE_Q_CAP}, got {q}")
    u = 1.0 / g
    eq = u[:, None, :] ** np.arange(1, q + 1, dtype=float)[None, :, None]
    scale = eq.max(axis=2)
    eq /= scale[:, :, None]
    # kappa_2 <= q kappa_1 (eq > 0: a column sum) clears q kappa_1 <= COND_LIMIT / 2,
    # half for error in the inverse, without an SVD; cond runs on the rest, NaN too
    try:
        inv = np.linalg.inv(eq)
        kappa1 = eq.sum(axis=1).max(axis=1) * np.abs(inv, out=inv).sum(axis=1).max(axis=1)
        unsure = ~(q * kappa1 <= COND_LIMIT / 2)
    except np.linalg.LinAlgError:
        unsure = np.ones(len(eq), dtype=bool)
    cond = np.zeros(len(eq))
    cond[unsure] = np.linalg.cond(eq[unsure])
    bad = cond > COND_LIMIT
    if bad.any():
        i = int(np.argmax(bad))
        where = "" if single else f"bundle {i}: "
        raise IllConditionedSystem(
            f"{where}equilibrated system condition {cond[i]:.3e} exceeds {COND_LIMIT:.0e}"
        )
    th = np.linalg.solve(eq, (1.0 / scale)[:, :, None])[:, :, 0]
    return th[0] if single else th


# Each rule of the schedule, written once for the one-bundle measurements and
# the sweeps: t runs along the first axis, of one bundle (q,) or a chunk (q, n).

def _weight_sum(gam: np.ndarray) -> np.ndarray:
    """1 - prod_t (1 - gamma_t) as s <- s + g - s*g: no leading digits cancel."""
    s = np.zeros(gam.shape[1:])
    for g in gam:
        s += g - s * g
    return s


def _scaled_residual(gam: np.ndarray, th: np.ndarray) -> np.ndarray:
    """WeightDiagnostics.residual, or inf where its divisor is not positive."""
    u = 1.0 / gam
    num, row_norm = np.zeros(gam.shape[1:]), np.zeros(gam.shape[1:])
    for r in range(1, len(gam) + 1):
        rows = u ** float(r)
        num = np.maximum(num, np.abs((rows * th).sum(axis=0) - 1.0))
        row_norm = np.maximum(row_norm, rows.sum(axis=0))
    denom = row_norm * np.abs(th).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, num / denom, np.inf)


def _sign_faults(th: np.ndarray) -> int:
    """Thetas breaking theta_t > 0 for odd t, < 0 for even t; a NaN is one."""
    return int(np.count_nonzero(~(th[0::2] > 0.0)) + np.count_nonzero(~(th[1::2] < 0.0)))


def _contraction(s, pk, pk1, p: int):
    """(1 - S) p_{k+1} - (1 - S/d) p_k; see check_potential_inequality."""
    d = 2.0 if p == 3 else p + 1.0
    return (1.0 - s) * pk1 - (1.0 - s / d) * pk


def weight_sum_closed_form(gammas) -> float:
    """Sum of the (*) weights without solving for them: 1 - prod_t (1 - gamma_t)."""
    return float(_weight_sum(_as_gamma_stack(gammas, stack=False)[0]))


def validate(params: ParamsBlock) -> WeightDiagnostics:
    """Measure a bundle, a one-row block, against (*), the unit-interval
    sum (math.fsum of its thetas), and the signs.

    Never raises on a one-row block; failures are carried in the flags so
    sweeps can aggregate.
    """
    (g,), (th,) = params.gammas, params.thetas
    try:
        s = math.fsum(th.tolist())
    except (ValueError, OverflowError):  # inf - inf, or a partial sum past the float range
        s = math.nan
    return WeightDiagnostics(
        residual=float(_scaled_residual(g, th)),
        theta_sum_in_unit=0.0 < s < 1.0,
        signs_alternate=_sign_faults(th) == 0,
    )


def check_potential_inequality(k: int, p: int) -> bool:
    """True when (1 - S_k) p_{k+1} <= (1 - S_k / d) p_k.

    S_k is the iteration's weight sum, math.fsum of its thetas; d = 2 at
    order 3, d = p + 1 otherwise. This is the contraction the error-discount
    weights were chosen for; the built-in schedules satisfy it at every k.
    """
    s = math.fsum(params_general(k, p).thetas[0].tolist())
    pk, pk1 = (potential_weight(j, p) for j in (k, k + 1))
    return bool(_contraction(s, pk, pk1, p) <= 0.0)


def _sweep_chunks(k_max: int, overlap: int = 0):
    """0..k_max as float chunks of _CHUNK indices, each extended by the first
    `overlap` indices of the next (past k_max on the last chunk)."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    start = 0
    while start <= k_max:
        stop = min(start + _CHUNK, k_max + 1)
        yield np.arange(start, stop + overlap, dtype=float)
        start = stop


def _bundle_blocks(p: int, k0: int, k1: int):
    """params_block over k0 .. k1 - 1, _BUNDLE_ROWS indices at a time."""
    return (params_block(p, a, min(a + _BUNDLE_ROWS, k1)) for a in range(k0, k1, _BUNDLE_ROWS))


def weight_residual_sweep(p: int, k_max: int) -> float:
    """Worst scaled residual of the schedule weights in the defining
    system over k in 0..k_max: validate's residual, measured straight from
    the defining equations.
    """
    worst = 0.0
    for ks in _sweep_chunks(k_max):
        _, _, gam, th = _schedule_chunk(p, ks)
        worst = max(worst, float(_scaled_residual(gam, th).max()))
    return worst


def dense_agreement_sweep(p: int, k_max: int) -> float:
    """Worst relative gap between the production weights and the dense
    linear-solve oracle over k in 0..k_max.

    The production bundles come from params_block, a block of indices at a
    time: the bundles the optimizer consumes, bit for bit params_general.
    The oracle is batched over k too, one stacked solve_weights_linear call
    per sweep chunk, and shares no code with the closed-form product.
    """
    worst = 0.0
    for ks in _sweep_chunks(k_max):
        blocks = list(_bundle_blocks(p, int(ks[0]), int(ks[-1]) + 1))
        th = np.concatenate([b.thetas for b in blocks])
        ref = solve_weights_linear(np.concatenate([b.gammas for b in blocks]))
        gap = np.abs(th - ref).max(axis=1) / np.abs(ref).max(axis=1)
        worst = max(worst, float(gap.max()))
    return worst


def sum_identity_sweep(p: int, k_max: int) -> Tuple[float, int]:
    """Worst relative gap of the product identity for the weight sum, and
    the number of sign-pattern violations, over k in 0..k_max.

    The identity: sum_t theta_t = 1 - prod_t (1 - gamma_t). Signs must
    alternate starting positive.
    """
    worst = 0.0
    violations = 0
    for ks in _sweep_chunks(k_max):
        _, _, gam, th = _schedule_chunk(p, ks)
        s = _weight_sum(gam)
        worst = max(worst, float(np.max(np.abs(th.sum(axis=0) - s) / np.abs(s))))
        violations += _sign_faults(th)
    return worst, violations


def sum_identity_check(p: int, k_max: int) -> CheckReport:
    """CheckReport wrapper over sum_identity_sweep; tol 1e-12 and zero
    sign violations."""
    worst, violations = sum_identity_sweep(p, k_max)
    return CheckReport(
        name=f"sum-identity:p{p}",
        passed=worst <= 1e-12 and violations == 0,
        worst_case=worst,
        samples=k_max + 1,
        detail=f"relative gap tol 1e-12; sign violations {violations} (must be 0)",
    )


def schedule_cross_check(p: int, k_max: int) -> CheckReport:
    """Residual sweep and dense-solve agreement, aggregated.

    worst_case is the larger of the two maxima, each in units of its own
    tolerance (residual 1e-9, agreement 1e-8); at or below 1 passes.
    """
    if not 2 <= p <= 6:
        raise ValueError(f"cross check covers p in 2..6, got {p}")
    residual = weight_residual_sweep(p, k_max)
    agreement = dense_agreement_sweep(p, k_max)
    worst = max(residual / 1e-9, agreement / 1e-8)
    return CheckReport(
        name=f"schedule-cross:p{p}",
        passed=worst <= 1.0,
        worst_case=worst,
        samples=k_max + 1,
        detail=(
            f"residual {residual:.3e} (tol 1e-9), dense agreement "
            f"{agreement:.3e} (tol 1e-8); worst_case in tolerance units"
        ),
    )


def bound_sweep(p: int, k_max: int = 10**6) -> CheckReport:
    """Every schedule bound, at every k in 0..k_max.

    For all p: the weight sum lies in [1/(2c), ln(2p-1)/c] with
    c = (k+p)^(2p/(3p+1)); theta_t^2 <= 16 ((p-1)!)^2 / (t c)^2; the
    discount-weight contraction holds; and p_k <= p_{k+1} <= 2 p_k. For
    p = 3 additionally, on the dedicated schedule: the weight sum lies
    strictly inside (1/(k+3)^(3/5), 1.5/(k+3)^(3/5)), theta_1^2 <=
    4/(k+3)^(6/5), and theta_2^2 <= 1/(4 (k+3)^(6/5)), plus its own
    contraction with divisor 2.

    worst_case is the largest signed violation (negative = slack
    everywhere); closed bounds pass at <= 0, the strict interval needs
    < 0.
    """
    if not 2 <= p <= 6:
        raise ValueError(f"bound sweep covers p in 2..6, got {p}")
    d = 3.0 * p + 1.0
    fac = 16.0 * float(math.factorial(p - 1)) ** 2
    log_cap = math.log(2.0 * p - 1.0)
    worst_closed = -math.inf
    worst_strict = -math.inf
    # each chunk runs one index into the next, so p_{k+1} is the row after
    # p_k: (k+1) + p and (k+p) + 1 are the same exact integer in a double
    for ks in _sweep_chunks(k_max, overlap=1):
        lg, c, gam, th = _schedule_chunk(p, ks)
        pk_all = np.exp((p - 1.0) / d * lg)
        pk, pk1 = pk_all[:-1], pk_all[1:]
        c, gam, th = c[:-1], gam[:, :-1], th[:, :-1]
        s = _weight_sum(gam)
        vs = [1.0 / (2.0 * c) - s, s - log_cap / c]
        for t in range(1, p):
            vs.append(th[t - 1] ** 2 - fac / (t * c) ** 2)
        vs += [_contraction(s, pk, pk1, p), pk - pk1, pk1 - 2.0 * pk]
        worst_closed = max(worst_closed, max(float(v.max()) for v in vs))
        if p == 3:
            # here c = (k+3)^(3/5) and pk = (k+3)^(1/5), bit for bit: 2p/d
            # and (p-1)/d are the doubles 0.6 and 0.2, so c is p3_arrays's c
            _, th3 = _p3_weights(c)
            s3 = th3[0] + th3[1]
            strict = [1.0 / c - s3, s3 - 1.5 / c]
            worst_strict = max(worst_strict, max(float(v.max()) for v in strict))
            closed3 = [
                th3[0] ** 2 - 4.0 / c**2,
                th3[1] ** 2 - 1.0 / (4.0 * c**2),
                _contraction(s3, pk, pk1, 3),
            ]
            worst_closed = max(worst_closed, max(float(v.max()) for v in closed3))
    passed = worst_closed <= 0.0 and (p != 3 or worst_strict < 0.0)
    worst = worst_closed if p != 3 else max(worst_closed, worst_strict)
    return CheckReport(
        name=f"bounds:p{p}",
        passed=passed,
        worst_case=worst,
        samples=k_max + 1,
        detail=(
            f"largest signed violation; closed bounds need <= 0 "
            f"(measured {worst_closed:.3e})"
            + (
                f", strict interval needs < 0 (measured {worst_strict:.3e})"
                if p == 3
                else ""
            )
        ),
    )


def p3_consistency_check(k_max: int = 10**4) -> CheckReport:
    """The dedicated order-3 schedule against the general one at p = 3,
    every field, relative tolerance 1e-14.

    The general side comes from params_block, a block of indices at a
    time; the dedicated side stays the scalar literal form of params_p3,
    one k at a time.
    """
    worst = 0.0
    for a in _bundle_blocks(3, 0, k_max + 1):
        general = np.column_stack([a.eta, list(map(math.fsum, a.thetas.tolist())), a.gammas,
                                   a.thetas])
        dedicated = np.array([_p3_literal(k) for k in range(a.k0, a.k0 + len(a.eta))])
        worst = max(worst, float((np.abs(general - dedicated) / np.abs(dedicated)).max()))
    return CheckReport(
        name="p3-consistency",
        passed=worst <= 1e-14,
        worst_case=worst,
        samples=k_max + 1,
        detail="relative gap between general p=3 and dedicated bundles; tol 1e-14",
    )
