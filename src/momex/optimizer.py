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

A state holds one run, (n,), or a stack of runs, (S, n), whose rows each
get the bits they would get alone; run_batch steps all seeds of several
kinds together and run is its one-kind, one-seed case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import NoiseModel, Sample, SmoothProblem, _norm, draw_sample, stochastic_grad
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
    "run_batch",
    "select_output_iterate",
]


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Everything iteration k needs from iteration k-1.

    carry holds the parameters used during the previous iteration; the
    extrapolation at iteration k reads last iteration's gammas, not the
    current ones. zs keeps the most recent query points for inspection.
    Arrays are (n,) or (S, n) for S runs; zero_steps then counts per run.
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
    """State before iteration 0 from x0 (n,) or (S, n): x^-1 = x^0, m^-1 = 0."""
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.ndim not in (1, 2):
        raise ValueError(f"x0 must be (n,) or (S, n), got shape {x0.shape}")
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
) -> Tuple[np.ndarray, Union[bool, np.ndarray]]:
    """x - eta m/||m|| per row; a zero direction leaves its row unchanged
    and is flagged (a bool per row, or False when no row has one)."""
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    nm = np.sqrt(np.vecdot(m, m, keepdims=True))  # bitwise np.linalg.norm per row
    if np.count_nonzero(nm) == nm.size:
        return x_cur - (eta / nm) * m, False
    # rows with a zero direction keep x; dividing them by 1.0 keeps the division quiet
    zero = nm == 0.0
    step = (eta / np.where(zero, 1.0, nm)) * m
    return np.where(zero, x_cur, x_cur - step), zero[..., 0]


# (stacked query points (q, ..., n), shared sample) -> stacked gradients
Oracle = Callable[[np.ndarray, Sample], np.ndarray]


def mem_step(
    state: OptimizerState,
    params: IterationParams,
    oracle: Oracle,
    sample: Sample,
    normalized: bool = True,
) -> OptimizerState:
    """One iteration of the shared recursion every method runs.

    Queries the oracle once, at the q points extrapolated with the carried
    (previous-iteration) gammas stacked as (q, ..., n), all on the shared
    sample, folds them into the momentum with the carried thetas, then
    steps with this iteration's eta: a fixed length along m/||m||, or eta m
    when not normalized. params becomes the next carry, for every run.
    """
    if params.k != state.k:
        raise ValueError(f"params are for k={params.k}, state is at k={state.k}")
    zs = tuple(
        extrapolate(state.x_cur, state.x_prev, g) for g in state.carry.gammas
    )
    grads = oracle(np.array(zs), sample)
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
        zero_steps=state.zero_steps + zero,
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
    """One run's rows, final state ((n,) arrays) and stored iterates.
    status is "completed", "wall-clock" (stopped by the ceiling) or
    "non-finite at k": iteration k left a momentum norm or next iterate
    that is not finite. Nothing is frozen; the rows show what followed."""

    records: Tuple[TrajectoryRecord, ...]
    state: OptimizerState
    iterates: Tuple[np.ndarray, ...]
    metric_grad_evals: int
    status: str = "completed"


# A block of at most _BLOCK_MAX iterations shares one draw array and one
# batched metric evaluation; each block array (iterations x seeds x n)
# holds at most _BLOCK_VALUES values, so memory stays bounded at any size.
_BLOCK_VALUES, _BLOCK_MAX = 1 << 15, 256


# a diverging run reports its status instead of numpy's overflow warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_batch(
    kinds: Sequence[AlgorithmKind],
    problem: SmoothProblem,
    noise: NoiseModel,
    x0,
    budgets: Sequence[int],
    seeds: Sequence[int],
    log_strides: Sequence[int],
    wall_seconds: Optional[float] = None,
    store_iterates: bool = False,
) -> list[Tuple[RunResult, ...]]:
    """run for every (kind, seed) pair; per kind, one RunResult per seed.

    Row k pairs x^k with the momentum computed during iteration k (the
    momentum the convergence measure couples to x^k); at budget 0 the only
    row pairs x^0 with the initial zero momentum, so its mom_err is
    ||grad f(x^0)||. Metric gradients (for grad_norm and mom_err) are exact
    and counted separately from oracle calls. Logging happens every
    log_stride iterations, plus the last iteration and a closing row at
    k = budget. wall_seconds, when set, stops the batch after the first
    iteration that ends past it; closing rows refer to the last completed
    iterates. Seeds feed the per-iteration noise draws only, never the data.

    All seeds of a kind step as one (S, n) state; the kinds advance block
    by block, each block's (seed, k) draws made once for all of them. Every
    run is bit for bit what it is alone (elapsed_seconds aside).
    """
    x0, S, seeds = np.asarray(x0, dtype=float), len(seeds), tuple(seeds)
    if len({len(kinds), len(budgets), len(log_strides)}) > 1 or not S or x0.ndim != 1:
        raise ValueError(f"{len(kinds)} kinds, {len(budgets)} budgets, {len(log_strides)} "
                         f"log strides, {S} seeds and x0 of shape {x0.shape}")
    if min(budgets) < 0 or min(log_strides) < 1:
        raise ValueError(f"budget must be >= 0 and log_stride >= 1: {budgets}, {log_strides}")
    f0, t0 = problem.value(x0), time.perf_counter()
    states = [initial_state(np.tile(x0, (S, 1)), kind.q) for kind in kinds]
    records = [[[] for _ in seeds] for _ in kinds]
    iterates = [[st.x_cur] for st in states]
    bad_at = [np.full(S, -1) for _ in kinds]  # first non-finite iteration per seed
    oracle = lambda z, sample: stochastic_grad(problem, noise, z, sample)

    def log(i, X, M, ks, calls, times):
        G, F = problem.gradient(X), problem.value(X)  # one call each for all rows
        rel = F / f0 if f0 != 0.0 else np.full(F.shape, np.nan)
        cols = (a.T.tolist() for a in (F, rel, _norm(G), _norm(M - G)))
        for recs, *row in zip(records[i], *cols):
            recs.extend(map(TrajectoryRecord, ks, *row, calls, times))

    block, stopped = max(1, min(_BLOCK_MAX, _BLOCK_VALUES // (S * x0.size))), False
    for k0 in range(0, max(budgets), block):
        k1 = min(k0 + block, max(budgets))
        xis = np.zeros((k1 - k0, S)) if noise.kind == "none" else np.array(
            [[draw_sample(noise, problem.dim, s, k).xi for s in seeds] for k in range(k0, k1)])
        for i, kind in enumerate(kinds):
            if stopped or budgets[i] <= k0:
                continue
            # x^k0 .. and m^k0 .. of the block, copied so that each step's arrays
            # are freed at once (holding them slows numpy's allocator)
            X, M = np.empty((k1 - k0 + 1, S, x0.size)), np.empty((k1 - k0, S, x0.size))
            state, params, calls, times = states[i], kind.params, [], []
            X[0] = state.x_cur
            for k in range(k0, min(k1, budgets[i])):
                sample = Sample(xis[k - k0], seeds, k)
                state = mem_step(state, params(k), oracle, sample, kind.normalized)
                X[k - k0 + 1], M[k - k0] = state.x_cur, state.m
                calls.append(state.oracle_calls)
                times.append(time.perf_counter() - t0)
                if wall_seconds is not None and times[-1] > wall_seconds:
                    stopped = True
                    break
            states[i], n = state, len(calls)
            if store_iterates:
                iterates[i].extend(X[1 : n + 1])
            bad = ~(np.isfinite(X[1 : n + 1]).all(-1) & np.isfinite(np.vecdot(M[:n], M[:n])))
            bad_at[i] = np.where((bad_at[i] < 0) & bad.any(0), k0 + bad.argmax(0), bad_at[i])
            # row k pairs x^k (the point the momentum was computed at) with m^k
            rows = [j for j in range(n)
                    if (k0 + j) % log_strides[i] == 0 or k0 + j == budgets[i] - 1]
            log(i, X[rows], M[rows], [k0 + j for j in rows], [calls[j] for j in rows],
                [times[j] for j in rows])
        if stopped:
            break

    results = []
    for i, st in enumerate(states):
        log(i, st.x_cur[None], st.m[None], [st.k], [st.oracle_calls], [time.perf_counter() - t0])
        zero_steps = np.broadcast_to(st.zero_steps, S)
        ended = "completed" if st.k == budgets[i] else "wall-clock"
        results.append(tuple(
            RunResult(
                tuple(recs),
                replace(st, x_prev=st.x_prev[s], x_cur=st.x_cur[s], m=st.m[s],
                        zero_steps=int(zero_steps[s]), zs=tuple(z[s] for z in st.zs)),
                tuple(x[s].copy() for x in iterates[i]) if store_iterates else (),
                len(recs),  # one exact gradient per logged row
                f"non-finite at {bad_at[i][s]}" if bad_at[i][s] >= 0 else ended,
            )
            for s, recs in enumerate(records[i])
        ))
    return results


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
    """Drive a method for `budget` iterations and log its trajectory:
    run_batch with one kind and one seed."""
    ((result,),) = run_batch(
        [kind], problem, noise, x0, [budget], [seed], [log_stride], wall_seconds, store_iterates
    )
    return result


def select_output_iterate(
    iterates: Sequence[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw over x^0 .. x^{K-1} (the final iterate is excluded)."""
    if len(iterates) < 2:
        raise ValueError("need at least two stored iterates (x^0 and x^1)")
    return iterates[int(rng.integers(0, len(iterates) - 1))]
