"""Per-iteration schedules for extrapolated-momentum methods.

Each iteration of the optimizer consumes one parameter bundle: a step size
eta_k, extrapolation coefficients gamma_{k,1..q} in (0,1), and signed
momentum weights theta_{k,1..q}. The weights are tied to the gammas by the
reciprocal-power system

    sum_t theta_t / gamma_t**r = 1    for r = 1..q,                    (*)

whose coefficient matrix is Vandermonde-like in the reciprocals 1/gamma_t.
This module holds what the optimizer and the run summary use: the built-in
order-p schedule, evaluated a block of iterations at a time (params_block;
a bundle is a one-row block, such as params_general's), the closed-form
solution of (*), the error-discount weights and the reporting constants.
Everything that checks the schedule (the dense solve of (*), the literal
order-3 form, the measurements of the identities, signs and bounds)
lives in verify.

All values are plain 64-bit floats and every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScheduleConfig",
    "ParamsBlock",
    "params_block",
    "params_general",
    "params_for",
    "init_params",
    "solve_weights_closed_form",
    "potential_weight",
    "theorem_constant",
    "iteration_threshold",
]


def _check_order(p) -> None:
    if not isinstance(p, (int, np.integer)) or p < 2:
        raise ValueError(f"p, the smoothness order, must be an integer >= 2, got {p!r}")


def _check_index(k) -> None:
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")


def _as_gamma_stack(gammas, stack: bool = True) -> np.ndarray:
    """Gammas as an (N, q) stack, every row in (0,1) and strictly
    decreasing. A 1-d input is the stack of one and keeps the single-vector
    messages; stack=False refuses every other shape."""
    g = np.asarray(gammas, dtype=float)
    if g.size == 0 or g.ndim not in ((1, 2) if stack else (1,)):
        suffix = " or (N, q) stack" if stack and g.ndim != 1 else ""
        raise ValueError(f"gammas must be a nonempty 1-d array{suffix}")
    rows = g.reshape(-1, g.shape[-1])
    inside = ((rows > 0.0) & (rows < 1.0)).all(axis=1)
    ok = inside & (np.diff(rows, axis=1) < 0.0).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        where = "" if g.ndim == 1 else f"bundle {i}: "
        fault = "lie in (0,1)" if not inside[i] else "be strictly decreasing"
        raise ValueError(f"{where}extrapolation coefficients must {fault}, got {rows[i]}")
    return rows


@dataclass(frozen=True)
class ScheduleConfig:
    """The built-in order-p schedule, which pairs q = p - 1 extrapolations
    with decreasing step and mixing rules. Any other schedule is a stream
    of ParamsBlocks handed to the optimizer directly; a per-k rule writes
    its values for k0 .. k1 - 1 as the block's columns."""

    p: int
    q: int

    def __post_init__(self):
        _check_order(self.p)
        if self.q != self.p - 1:
            raise ValueError(f"q must equal p - 1 = {self.p - 1} for the order-p schedule, got {self.q!r}")


@dataclass(frozen=True, eq=False)
class ParamsBlock:
    """Bundles of iterations k0 .. k0 + B - 1 as arrays: eta (B,), gammas
    and thetas (B, q). Row j is the bundle of iteration k0 + j; one
    iteration's bundle is a one-row block. A row's weight sum is the
    exactly rounded sum of its thetas, math.fsum of the row.

    Schedule outputs keep the gammas strictly decreasing in (0,1), the
    thetas alternating in sign starting positive, and the weight sum inside
    (0,1); verify.validate() measures those properties for hand-built bundles.
    The warm-up row from init_params() intentionally sits outside these
    conventions (gamma = 1, equal positive weights)."""

    k0: int
    eta: np.ndarray
    gammas: np.ndarray
    thetas: np.ndarray


def params_block(p: int, k0: int, k1: int) -> ParamsBlock:
    """Bundles of the order-p schedule at iterations k0 .. k1 - 1.

    With d = 3p + 1 and the shared power c = (k+p)^(2p/d):

        eta_k = (k+p)^(-(2p+1)/d),    gamma_{k,t} = 1/(t c),  t = 1..p-1,

    and the thetas solve (*) for those gammas via the closed form. Both
    exponentials share one log of (k+p) so a single bundle never mixes
    inconsistent roundings of the base power. The logs, exponentials and
    powers go through libm one value at a time (numpy's vector kernels can
    be an ulp away); the rest is exactly rounded arithmetic on whole
    columns. So a row has the same bits whatever block computes it.

    Raises:
        ValueError: p < 2, k0 < 0 or k1 < k0.
        OverflowError: an index beyond 64-bit float range.
    """
    _check_order(p)
    _check_index(k0)
    if k1 < k0:
        raise ValueError(f"block end must be >= its start, got k0={k0}, k1={k1}")
    try:
        base = [float(k) + p for k in range(k0, k1)]
    except OverflowError as exc:
        raise OverflowError("iteration index exceeds 64-bit float range") from exc
    lg = np.array(list(map(math.log, base)))
    d = 3.0 * p + 1.0
    c = np.array(list(map(math.exp, (2.0 * p / d * lg).tolist())))
    eta = np.array(list(map(math.exp, (-(2.0 * p + 1.0) / d * lg).tolist())))
    # c > 1, so these lie in (0,1) and decrease: valid by construction
    gammas = 1.0 / (c[:, None] * np.arange(1.0, p))
    return ParamsBlock(k0=k0, eta=eta, gammas=gammas, thetas=_closed_form(gammas))


def params_general(k: int, p: int) -> ParamsBlock:
    """Parameter bundle of the order-p schedule at iteration k: the one-row
    block params_block(p, k, k + 1).

    Raises:
        ValueError: p < 2 or k < 0.
        OverflowError: k beyond 64-bit float range.
    """
    return params_block(p, k, k + 1)


def params_for(config: ScheduleConfig, k: int) -> ParamsBlock:
    """Bundle for iteration k of the configured schedule."""
    return params_general(k, config.p)


def init_params(q: int) -> ParamsBlock:
    """Warm-up row consumed by the first iteration, a one-row block at
    k0 = -1.

    gamma = 1 pins every query point to the current iterate and the q
    gradient draws enter with equal weight 1/q, so the first momentum is the
    plain averaged gradient. Its eta is NaN on purpose: nothing may consume
    the warm-up step size.
    """
    if q < 1:
        raise ValueError(f"extrapolation count must be >= 1, got {q}")
    return ParamsBlock(k0=-1, eta=np.array([math.nan]), gammas=np.ones((1, q)),
                       thetas=np.full((1, q), 1.0 / q))


# tiny or nearly equal gammas may overflow a factor, as the scalar product would, quietly
@np.errstate(over="ignore", invalid="ignore")
def _closed_form(g: np.ndarray) -> np.ndarray:
    """solve_weights_closed_form on valid rows of gammas (B, q).

    Each row has the bits of the scalar product: the factors are exactly
    rounded operations, multiplied in order of s with 1.0 standing in at
    s = t (an exact no-op), and gamma**q goes through libm's pow per value
    (numpy's integer powers square instead).
    """
    q = g.shape[1]
    num = g[:, None, :] - 1.0  # [b, t, s] = gamma_s - 1
    eye = np.eye(q, dtype=bool)
    ratio = num / np.where(eye, num, g[:, None, :] - g[:, :, None])
    f = ratio[:, :, 0]
    for s in range(1, q):
        f = f * ratio[:, :, s]
    return np.array([x**q for x in g.ravel().tolist()]).reshape(g.shape) * f


def solve_weights_closed_form(gammas) -> np.ndarray:
    """Unique solution of (*) written directly in the gammas.

        theta_t = gamma_t**q * prod_{s != t} (gamma_s - 1) / (gamma_s - gamma_t)

    Every factor stays well scaled as the gammas shrink, and at q = 1 the
    empty product collapses to theta = gamma exactly. Signs alternate:
    theta_t > 0 for odd t, theta_t < 0 for even t.
    """
    return _closed_form(_as_gamma_stack(gammas, stack=False))[0]


def potential_weight(k: int, p: int) -> float:
    """Error-discount weight p_k = (k+p)^((p-1)/(3p+1)) of the order-p schedule.

    At p = 3 the exponent reduces to 1/5, which is also what the dedicated
    third-order analysis uses, so one formula covers every order.
    Nondecreasing in k, and never more than doubles from one index to the
    next.
    """
    _check_index(k)
    _check_order(p)
    return math.exp((p - 1.0) / (3.0 * p + 1.0) * math.log(float(k) + p))


def theorem_constant(
    p: int, f0_minus_flow: float, sigma: float, L1: float, Lp: float
) -> float:
    """Reporting constant M_p aggregating a problem's scale parameters.

    Order 3 has its own sharper form; every other order uses the general
    one, evaluated literally. Monotone increasing in each argument. This is
    a diagnostic for summaries and never gates execution.
    """
    _check_order(p)
    for name, v in (
        ("f0_minus_flow", f0_minus_flow),
        ("sigma", sigma),
        ("L1", L1),
        ("Lp", Lp),
    ):
        if not v >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {v}")
    if p == 3:
        return 4.0 * (f0_minus_flow + 19.0 * sigma**2 + L1 + 4.0 * Lp**2 + 2.0)
    pf = float(math.factorial(p))
    return 4.0 * (
        f0_minus_flow
        + p * sigma**2
        + 1.5 * L1
        + 7.0 * Lp**2 / pf**2
        + 2.0 * (p + 1.0 + 32.0 * float(p) ** (2 * p) * Lp**2 + 16.0 * pf**2 * sigma**2)
    )


def iteration_threshold(p: int, m_const: float, epsilon: float) -> float:
    """Iteration count after which the expected gradient norm meets epsilon.

        max( (x ln x)^((3p+1)/p), 2p )   with   x = (6p+2) M / (p epsilon)

    Companion to theorem_constant(); reporting only. epsilon must lie in
    (0,1). Returns inf when the power overflows 64-bit floats.
    """
    _check_order(p)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not m_const > 0.0:
        raise ValueError(f"M must be positive, got {m_const}")
    x = (6.0 * p + 2.0) * m_const / (p * epsilon)
    y = x * math.log(x) if x > 0.0 else 0.0
    if y <= 1.0:
        return 2.0 * p
    lt = (3.0 * p + 1.0) / p * math.log(y)
    thresh = math.inf if lt > 709.0 else math.exp(lt)
    return max(thresh, 2.0 * p)
