"""Normalized stochastic gradient methods as parameter streams into one kernel.

Every method runs the same recursion, mem_step: evaluate the stochastic
gradient at q points extrapolated from the last two iterates, all on one
shared noise draw, fold them into the momentum with signed weights, and
step. A method is an AlgorithmKind: its q, a stream k -> IterationParams,
and whether the step is normalized.

- mem: the order-p schedule, q = p - 1 extrapolations.
- sg-pm (normalized Polyak momentum): gamma = 1, so the query point is x
  itself, and theta = gamma_k.
- nigt (implicit gradient transport): one constant q = 1 bundle, so it IS
  mem on a constant q = 1 stream, bit for bit.
- sg: gamma = theta = 1, so m = g, and an unnormalized step x - eta_k g.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .problems import NoiseModel, Sample, SmoothProblem, draw_sample, stochastic_grad
from .schedule import (
    IterationParams,
    ScheduleConfig,
    init_params,
    params_for,
    solve_weights_closed_form,
)

__all__ = [
    "OptimizerState",
    "AlgorithmKind",
    "TrajectoryRecord",
    "RunResult",
    "initial_state",
    "extrapolate",
    "momentum_update",
    "normalized_step",
    "mem_step",
    "sg_step",
    "sgpm_step",
    "nigt_step",
    "mem",
    "sg",
    "sg_pm",
    "nigt",
    "run",
    "select_output_iterate",
]


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Everything iteration k needs from iteration k-1.

    carry holds the parameters used during the previous iteration; the
    extrapolation at iteration k reads last iteration's gammas, not the
    current ones. zs keeps the most recent query points for inspection.
    """

    x_prev: np.ndarray
    x_cur: np.ndarray
    m: np.ndarray
    k: int
    carry: IterationParams
    oracle_calls: int = 0
    zero_steps: int = 0
    zs: Tuple[np.ndarray, ...] = ()


def initial_state(x0, q: int) -> OptimizerState:
    """State before iteration 0: x^-1 = x^0, m^-1 = 0, init carry row."""
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.ndim != 1:
        raise ValueError(f"x0 must be 1-d, got shape {x0.shape}")
    return OptimizerState(
        x_prev=x0.copy(),
        x_cur=x0,
        m=np.zeros_like(x0),
        k=0,
        carry=init_params(q),
    )


def extrapolate(x_cur: np.ndarray, x_prev: np.ndarray, gamma: float) -> np.ndarray:
    """z = x_cur + ((1 - gamma)/gamma) (x_cur - x_prev)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if gamma == 1.0:
        return x_cur
    return x_cur + ((1.0 - gamma) / gamma) * (x_cur - x_prev)


def momentum_update(
    m_prev: np.ndarray, thetas: Sequence[float], grads: Sequence[np.ndarray]
) -> np.ndarray:
    """m = (1 - sum(theta)) m_prev + sum_t theta_t g_t."""
    if len(thetas) != len(grads):
        raise ValueError(f"{len(thetas)} weights for {len(grads)} gradients")
    w = 1.0 - math.fsum(thetas)
    # weights summing to one drop m_prev outright, so m = g holds exactly
    # even when m_prev is not finite (0 * inf would give NaN)
    m = w * m_prev if w != 0.0 else 0.0
    for th, g in zip(thetas, grads):
        m = m + th * g
    return m


def normalized_step(
    x_cur: np.ndarray, m: np.ndarray, eta: float
) -> Tuple[np.ndarray, bool]:
    """x - eta m/||m||; a zero direction leaves x unchanged and flags it."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    nm = float(np.linalg.norm(m))
    if nm == 0.0:
        return x_cur, True
    return x_cur - (eta / nm) * m, False


Oracle = Callable[[np.ndarray, Sample], np.ndarray]


def mem_step(
    state: OptimizerState,
    params: IterationParams,
    oracle: Oracle,
    sample: Sample,
    normalized: bool = True,
) -> OptimizerState:
    """One iteration of the shared recursion every method runs.

    Queries the oracle at the q points extrapolated with the carried
    (previous-iteration) gammas, all on the shared sample, folds them into
    the momentum with the carried thetas, then steps with this iteration's
    eta: a fixed length along m/||m||, or eta m when not normalized. params
    becomes the next carry.
    """
    if params.k != state.k:
        raise ValueError(f"params are for k={params.k}, state is at k={state.k}")
    zs = tuple(
        extrapolate(state.x_cur, state.x_prev, g) for g in state.carry.gammas
    )
    grads = [oracle(z, sample) for z in zs]
    m = momentum_update(state.m, state.carry.thetas, grads)
    if normalized:
        x_next, zero = normalized_step(state.x_cur, m, params.eta)
    elif not params.eta > 0.0:
        raise ValueError(f"eta must be positive, got {params.eta}")
    else:
        x_next, zero = state.x_cur - params.eta * m, False
    return OptimizerState(
        x_prev=state.x_cur,
        x_cur=x_next,
        m=m,
        k=state.k + 1,
        carry=params,
        oracle_calls=state.oracle_calls + len(zs),
        zero_steps=state.zero_steps + int(zero),
        zs=zs,
    )


@dataclass(frozen=True)
class AlgorithmKind:
    """A method as mem_step sees it: q query points per iteration, the
    bundle for each iteration k, and whether the step is normalized."""

    name: str
    q: int
    params: Callable[[int], IterationParams]
    normalized: bool = True


def _unextrapolated(k: int, theta: float, eta: float) -> IterationParams:
    """q = 1 bundle that queries x itself (gamma = 1) and mixes the next
    gradient in with weight theta."""
    return IterationParams(
        k=k, eta=eta, gammas=[1.0], thetas=[theta], theta_sum=theta
    )


def mem(schedule: ScheduleConfig) -> AlgorithmKind:
    """The multi-extrapolated method under the order-p schedule."""
    return AlgorithmKind(
        name="mem", q=schedule.q, params=lambda k: params_for(schedule, k)
    )


def sg(eta_rule: Optional[Callable[[int], float]] = None) -> AlgorithmKind:
    """Decaying-step gradient descent, x - eta_k g with m = g; default
    eta_k = (k+1)^(-1/2)."""
    eta_rule = eta_rule or (lambda k: (k + 1.0) ** -0.5)
    return AlgorithmKind(
        name="sg",
        q=1,
        params=lambda k: _unextrapolated(k, 1.0, eta_rule(k)),
        normalized=False,
    )


def sg_pm(
    gamma_rule: Optional[Callable[[int], float]] = None,
    eta_rule: Optional[Callable[[int], float]] = None,
) -> AlgorithmKind:
    """Normalized Polyak momentum, m = (1 - gamma) m_prev + gamma g(x) with
    gamma from the previous iteration; defaults gamma_k = (k+1)^(-1/2),
    eta_k = (k+1)^(-3/4)."""
    gamma_rule = gamma_rule or (lambda k: (k + 1.0) ** -0.5)
    eta_rule = eta_rule or (lambda k: (k + 1.0) ** -0.75)

    def params(k: int) -> IterationParams:
        gamma = gamma_rule(k)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        return _unextrapolated(k, gamma, eta_rule(k))

    return AlgorithmKind(name="sg-pm", q=1, params=params)


def nigt(gamma: float, eta: float) -> AlgorithmKind:
    """Implicit gradient transport: the q = 1 kernel with one constant
    (gamma, eta) bundle, so it matches mem on a constant q = 1 stream."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    thetas = solve_weights_closed_form([gamma])
    bundle = IterationParams(
        k=0, eta=eta, gammas=[gamma], thetas=thetas, theta_sum=float(thetas[0])
    )
    return AlgorithmKind(name="nigt", q=1, params=lambda k: replace(bundle, k=k))


def sg_step(
    state: OptimizerState, eta: float, oracle: Oracle, sample: Sample
) -> OptimizerState:
    """One step of sg() at a constant eta."""
    kind = sg(lambda k: eta)
    return mem_step(state, kind.params(state.k), oracle, sample, kind.normalized)


def sgpm_step(
    state: OptimizerState, gamma: float, eta: float, oracle: Oracle, sample: Sample
) -> OptimizerState:
    """One step of sg_pm() at a constant (gamma, eta)."""
    kind = sg_pm(lambda k: gamma, lambda k: eta)
    return mem_step(state, kind.params(state.k), oracle, sample)


def nigt_step(
    state: OptimizerState, gamma: float, eta: float, oracle: Oracle, sample: Sample
) -> OptimizerState:
    """One step of nigt(gamma, eta)."""
    return mem_step(state, nigt(gamma, eta).params(state.k), oracle, sample)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One logged row; field order matches the CSV column order."""

    k: int
    f_val: float
    rel_obj: float
    grad_norm: float
    mom_err: float
    oracle_calls: int
    elapsed_seconds: float


@dataclass(frozen=True, eq=False)
class RunResult:
    records: Tuple[TrajectoryRecord, ...]
    state: OptimizerState
    iterates: Tuple[np.ndarray, ...]
    metric_grad_evals: int


def run(
    kind: AlgorithmKind,
    problem: SmoothProblem,
    noise: NoiseModel,
    x0,
    budget: int,
    seed: int,
    log_stride: int = 1,
    wall_seconds: Optional[float] = None,
    store_iterates: bool = False,
) -> RunResult:
    """Drive a method for `budget` iterations and log its trajectory.

    Row k pairs x^k with the momentum computed during iteration k (the
    momentum the convergence measure couples to x^k); at budget 0 the only
    row pairs x^0 with the initial zero momentum, so its mom_err is
    ||grad f(x^0)||. Metric gradients (for grad_norm and mom_err) are exact
    and counted separately from oracle calls. Logging happens every
    log_stride iterations, plus the last iteration and a closing row at
    k = budget.

    wall_seconds, when set, stops the loop early after the first iteration
    that exceeds it; the closing row still refers to the last completed
    iterate. seed feeds the per-iteration noise draws only, never the data.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if log_stride < 1:
        raise ValueError(f"log_stride must be >= 1, got {log_stride}")
    state = initial_state(x0, kind.q)
    f0 = problem.value(state.x_cur)
    t0 = time.perf_counter()
    records = []
    iterates = [state.x_cur.copy()] if store_iterates else []

    def log_row(k: int, x: np.ndarray, m: np.ndarray, calls: int):
        g = problem.gradient(x)
        f = problem.value(x)
        records.append(
            TrajectoryRecord(
                k=k,
                f_val=float(f),
                rel_obj=float(f / f0) if f0 != 0.0 else float("nan"),
                grad_norm=float(np.linalg.norm(g)),
                mom_err=float(np.linalg.norm(m - g)),
                oracle_calls=calls,
                elapsed_seconds=time.perf_counter() - t0,
            )
        )

    def oracle(z: np.ndarray, sample: Sample) -> np.ndarray:
        return stochastic_grad(problem, noise, z, sample)

    for k in range(budget):
        sample = draw_sample(noise, problem.dim, seed, k)
        prev_x = state.x_cur
        state = mem_step(state, kind.params(k), oracle, sample, kind.normalized)
        if store_iterates:
            iterates.append(state.x_cur.copy())
        if k % log_stride == 0 or k == budget - 1:
            # row k pairs x^k (the point the momentum was computed at) with m^k
            log_row(k, prev_x, state.m, state.oracle_calls)
        if wall_seconds is not None and time.perf_counter() - t0 > wall_seconds:
            break
    log_row(state.k, state.x_cur, state.m, state.oracle_calls)
    return RunResult(
        records=tuple(records),
        state=state,
        iterates=tuple(iterates),
        metric_grad_evals=len(records),  # one exact gradient per logged row
    )


def select_output_iterate(
    iterates: Sequence[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw over x^0 .. x^{K-1} (the final iterate is excluded)."""
    if len(iterates) < 2:
        raise ValueError("need at least two stored iterates (x^0 and x^1)")
    return iterates[int(rng.integers(0, len(iterates) - 1))]
