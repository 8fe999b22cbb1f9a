"""Normalized stochastic gradient methods as parameter streams into one kernel.

Every method runs the same recursion: evaluate the stochastic gradient at
q points extrapolated from the last two iterates, all on one shared noise
draw, fold them into the momentum with signed weights, and step. A method
is an AlgorithmKind: its q, a stream (k0, k1) -> the ParamsBlock for
iterations k0 .. k1 - 1, and whether the step is normalized.

- mem: the order-p schedule, q = p - 1 extrapolations.
- sg-pm (normalized Polyak momentum): gamma = 1, so the query point is x
  itself, and theta = gamma_k.
- nigt (implicit gradient transport): one constant q = 1 bundle, so it IS
  mem on a constant q = 1 stream, bit for bit.
- sg: gamma = theta = 1, so m = g, and an unnormalized step x - eta_k g.

One kernel steps a group, the runs of kinds of one q and normalization
stacked as (K S, n) arrays, through their blocks, each row getting the
bits it gets alone; it reads each coefficient as one array indexed by
step, and mem_step is its one-row case on an OptimizerState.
run_batch keeps each group's arrays from the first block to the last and
splits each (kind, seed) off once at the end; run is its one-kind,
one-seed case. A run's logged rows are kept as column arrays;
RunResult.records, a Trajectory, builds rows when read.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import (  # draw_sample: not called here; perfbench traces optimizer.draw_sample
    NoiseModel, SmoothProblem, _norm, draw_block, draw_sample, stochastic_grad)
from .schedule import (
    ParamsBlock,
    ScheduleConfig,
    init_params,
    params_block,
    params_for,  # not called here; perfbench traces optimizer.params_for (ROADMAP item 1)
    solve_weights_closed_form,
)

__all__ = [
    "OptimizerState",
    "AlgorithmKind",
    "TrajectoryRecord",
    "Trajectory",
    "RunResult",
    "initial_state",
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
    """Everything iteration k needs from iteration k-1: mem_step's state
    and a RunResult's (run_batch keeps a group's as arrays).

    carry holds the bundle used during the previous iteration, a one-row
    ParamsBlock; the extrapolation at iteration k reads last iteration's
    gammas, not the current ones. zs keeps the most recent query points
    for inspection. Arrays are (n,) or (S, n) for S runs; zero_steps then counts per run.
    """

    x_prev: np.ndarray
    x_cur: np.ndarray
    m: np.ndarray
    k: int
    carry: ParamsBlock
    oracle_calls: int = 0
    zero_steps: int = 0
    zs: Tuple[np.ndarray, ...] = ()


def initial_state(x0, q: int) -> OptimizerState:
    """State before iteration 0 from x0 (n,) or (S, n): x^-1 = x^0, m^-1 = 0."""
    x0 = np.asarray(x0, dtype=float).copy()
    if x0.ndim not in (1, 2):
        raise ValueError(f"x0 must be (n,) or (S, n), got shape {x0.shape}")
    return OptimizerState(x0.copy(), x0, np.zeros_like(x0), 0, init_params(q))


# (stacked query points (q, ..., n), the iteration's draw xi: a float, or
# one draw per run, (S,) or (S, n)) -> stacked gradients
Oracle = Callable[[np.ndarray, Union[float, np.ndarray]], np.ndarray]


def _fault(block: ParamsBlock, k0: int, n: int, q: int) -> Optional[str]:
    """What is wrong with the shape of a member's block of the n
    iterations k0 .., or None."""
    for name in ("eta", "gammas", "thetas", "theta_sum"):
        rows = len(getattr(block, name))
        if rows != n:
            what = f"{rows} bundles" if name == "eta" else f"{name} has {rows} rows"
            return f"{what} for the {n} iterations {k0}..{k0 + n - 1}"
    if (block.k0, block.gammas.shape[-1]) != (k0, q):
        return (f"params are for k={block.k0} with q={block.gammas.shape[-1]}, "
                f"state is at k={k0} with q={q}")
    if block.thetas.shape[-1] != q:
        return f"thetas have q={block.thetas.shape[-1]}, state is at k={k0} with q={q}"


def _stack(blocks: Sequence[ParamsBlock], k0: int, n: int, carry: tuple) -> tuple:
    """The members' blocks of the n iterations k0 .. as float columns behind
    their carried rows (the columns of the bundles they ran last, at k0 - 1:
    eta and theta_sum (K,), gammas and thetas (K, q)): eta and theta_sum
    (K, n + 1), gammas and thetas (K, n + 1, q). A gate checks them
    member after member, and its ValueError says what is wrong:
    each block has n rows in every column, starts at k0 and has the carry's
    q; the carried gammas and those of rows 0 .. n-2 lie in (0, 1] and every
    eta is > 0, naming the k of the first bad bundle, gammas before eta."""
    q = carry[1].shape[-1]
    faults = [_fault(b, k0, n, q) for b in blocks]
    K = next((i for i, f in enumerate(faults) if f), len(blocks))  # the members before it first
    E, G, T, sums = (np.concatenate((c[:K, None], np.array(
        [getattr(b, f) for b in blocks[:K]], dtype=float).reshape(K, n, *c.shape[1:])), axis=1)
        for c, f in zip(carry, ("eta", "gammas", "thetas", "theta_sum")))
    # per member, step j's q gammas then its eta, in reading order
    ok = np.concatenate(((G[:, :n] > 0.0) & (G[:, :n] <= 1.0), E[:, 1:, None] > 0.0), axis=2)
    if not ok.all():
        i = int(np.argmin(ok.all((1, 2))))
        j, t = divmod(int(np.argmin(ok[i].ravel())), q + 1)
        if t < q:
            g = G[i, 0, t] if j == 0 else blocks[i].gammas[j - 1, t]
            raise ValueError(f"bundle for k={k0 + j - 1}: gamma must be in (0, 1], got {g}")
        raise ValueError(f"bundle for k={k0 + j}: eta must be positive, got {blocks[i].eta[j]}")
    if K < len(blocks):
        raise ValueError(faults[K])
    return E, G, T, sums


def _steps(
    state: tuple, block: tuple, oracle: Oracle, xis: Sequence, normalized: bool,
    t0: float = 0.0, wall: float = math.inf,
) -> Tuple[tuple, int, np.ndarray, np.ndarray, np.ndarray]:
    """The recursion every method runs, for a group of K members of one q
    stepped as one state (x_prev, x, m, zero_steps, zs): (K S, n) arrays,
    member i's at rows i*S .. (i+1)*S - 1 (or (n,), one run alone), steps
    without a direction per row (a number until a row has one), and the
    last step's query points (q, ..., n); block is what _stack gives, one
    draw of xis per iteration. Iteration k queries the oracle once, at the
    q points x + ((1 - gamma)/gamma)(x - x_prev) for the carried gammas, on
    the draw xis[k - k0]; folds them into m = (1 - sum(theta)) m + sum
    theta_t g_t with the carried thetas, added in t order; then steps with
    row k's eta: a fixed length along m/||m||, or eta m when not normalized.
    The clock is read once a step, T[j] = time.perf_counter() - t0 after
    step j, and a reading past wall ends the block. Returns the new state,
    the steps taken, x^k0 .. and m^k0 .., stacked, and T.

    Each coefficient is read as one array indexed by step, with a value per
    row; a product with it has the bits of a product with that row's value
    alone, so every row gets the bits it gets alone: a row at gamma = 1
    takes z = x (x + 0 (x - x_prev) would turn -0.0 into +0.0 and inf into
    NaN), and a row whose weights sum to one drops m, as a member alone
    does."""
    (x_prev, x, m, zero_steps, _), (E, G, TS, _) = state, block
    n, q = len(xis), G.shape[-1]
    G, TS = G[:, :n], TS[:, :n]
    W, one = np.array([[1.0 - math.fsum(t) for t in ts] for ts in TS.tolist()]), G == 1.0

    def per_row(a):  # members' (K, n, ...) -> (n, ..., *x.shape[:-1], 1), S rows a member
        a = np.repeat(np.moveaxis(a, 0, -1), x[..., 0].size // len(a), axis=-1)
        return a.reshape(*a.shape[:-1], *x.shape[:-1], 1)

    # C is NaN at gamma = 1: np.where drops that product, and a quiet NaN
    # raises no flag where 0 * inf (x_prev not finite) would
    C = per_row(np.where(one, np.nan, (1.0 - G) / G))
    at, drop, ET = per_row(one), per_row(W == 0.0), per_row(E[:, 1:])
    # thetas and w span each row, as the arrays they multiply do: numpy runs
    # a product of equal shapes without its broadcasting iterator
    TH, WV = (per_row(a).repeat(x.shape[-1], -1) for a in (TS, W))
    at_x, any_x = one.all((0, 2)).tolist(), one.any((0, 2)).tolist()
    all_drop, any_drop = (W == 0.0).all(0).tolist(), (W == 0.0).any(0).tolist()
    head = range(q - 1)  # the thetas' products, added in t order; the last into M
    X, M, T = np.empty((n + 1, *x.shape)), np.empty((n, *x.shape)), np.empty(n)
    X[0] = x
    for j, e in enumerate(ET):
        if at_x[j]:  # every query point is x itself, whatever x_prev holds
            zs = x[None].repeat(q, 0)
        else:
            zs = x + C[j] * (x - x_prev)
            if any_x[j]:
                zs = np.where(at[j], x, zs)
        grads = oracle(zs, xis[j])
        if q != len(grads):
            raise ValueError(f"{q} weights for {len(grads)} gradients")
        # weights summing to one drop m outright, so m = g holds exactly
        # even when m is not finite (0 * inf would give NaN)
        m = (0.0 if all_drop[j] else np.where(drop[j], 0.0, WV[j] * m) if any_drop[j]
             else WV[j] * m)
        terms = TH[j] * grads
        for t in head:
            m = m + terms[t]
        m = np.add(m, terms[-1], out=M[j])
        if not normalized:
            x_next, zero = np.subtract(x, e * m, out=X[j + 1]), False
        else:
            nm = np.sqrt(np.vecdot(m, m, keepdims=True))  # bitwise np.linalg.norm per row
            if np.count_nonzero(nm) == nm.size:
                x_next, zero = np.subtract(x, (e / nm) * m, out=X[j + 1]), False
            else:  # rows with a zero direction keep x; dividing them by 1.0 keeps it quiet
                zero = nm == 0.0
                X[j + 1] = np.where(zero, x, x - (e / np.where(zero, 1.0, nm)) * m)
                x_next, zero = X[j + 1], zero[..., 0]
        x_prev, x, zero_steps = x, x_next, zero_steps + zero
        T[j] = t = time.perf_counter() - t0  # t a local float, for the comparison
        if t > wall:
            break
    return (x_prev, x, m, zero_steps, zs), j + 1, X, M, T


def mem_step(state: OptimizerState, params: ParamsBlock, oracle: Oracle, xi,
             normalized: bool = True) -> OptimizerState:
    """One iteration on the draw xi: the kernel on params, the one-row block
    of iteration state.k, carrying state.carry; params is the new carry."""
    c = state.carry
    (x_prev, x, m, zero_steps, zs), *_ = _steps(
        (state.x_prev, state.x_cur, state.m, state.zero_steps, ()),
        _stack([params], state.k, 1, (c.eta, c.gammas, c.thetas, c.theta_sum)), oracle, [xi],
        normalized)
    return OptimizerState(x_prev, x, m, state.k + 1, params,
                          state.oracle_calls + c.gammas.shape[-1], zero_steps, tuple(zs))


@dataclass(frozen=True)
class AlgorithmKind:
    """A method as the kernel sees it: q query points per iteration,
    bundles(k0, k1) -> the ParamsBlock for iterations k0 .. k1 - 1, and
    whether the step is normalized. A per-k rule is written as columns: the
    stream lambda k0, k1: ParamsBlock(k0, eta, gammas, thetas, theta_sum)
    with the rule's values for k0 .. k1 - 1 as rows."""

    name: str
    q: int
    bundles: Callable[[int, int], ParamsBlock]
    normalized: bool = True


def mem(schedule: ScheduleConfig) -> AlgorithmKind:
    """The multi-extrapolated method under the order-p schedule."""
    return AlgorithmKind("mem", schedule.q, lambda k0, k1: params_block(schedule.p, k0, k1))


# a rule is a callable of k or a float, the same at every k
Rule = Union[float, Callable[[int], float]]


def _column(rule: Rule, k0: int, k1: int) -> list:
    """rule(k) for k = k0 .. k1 - 1; a float rule is read once."""
    return [rule(k) for k in range(k0, k1)] if callable(rule) else [float(rule)] * (k1 - k0)


def _refuse(gamma: Rule, eta: Rule, gamma_in: Callable[[float], bool], interval: str) -> None:
    """Refuse a gamma or eta given as a number that is not finite (an int
    beyond the float range included), then a gamma not in interval and an
    eta that is not > 0; a callable rule is left to the k it is read at."""
    for name, val in (("gamma", gamma), ("eta", eta)):
        if not (callable(val) or val is None or abs(val) <= sys.float_info.max):
            raise ValueError(f"{name} must be finite, got {val!r}")
    if not callable(gamma) and (gamma is None or not gamma_in(gamma)):
        raise ValueError(f"gamma must be in {interval}, got {gamma}")
    if not callable(eta) and (eta is None or not eta > 0.0):
        raise ValueError(f"eta must be positive, got {eta}")


def _momentum_stream(gamma_rule: Rule, eta_rule: Rule) -> Callable[[int, int], ParamsBlock]:
    """The q = 1 stream that queries x itself and weighs its gradient by
    gamma_k: the block whose row k holds eta_k, gammas (1.0,), thetas
    (gamma_k,) and theta_sum gamma_k. A float rule is refused when the kind
    is built, a callable gamma rule at the k where it leaves (0, 1] (gamma_k is
    the theta, which the kernel's gate does not read), and a callable eta
    rule by the gate. A block reads its gammas, then its etas."""
    _refuse(gamma_rule, eta_rule, lambda g: 0.0 < g <= 1.0, "(0, 1]")

    def bundles(k0: int, k1: int) -> ParamsBlock:
        gammas = _column(gamma_rule, k0, k1)
        for k, gamma in zip(range(k0, k1) if callable(gamma_rule) else (), gammas):
            if not 0.0 < gamma <= 1.0:
                raise ValueError(f"bundle for k={k}: gamma must be in (0, 1], got {gamma}")
        return ParamsBlock(k0, np.array(_column(eta_rule, k0, k1), dtype=float),
                           np.ones((k1 - k0, 1)), np.array(gammas, dtype=float)[:, None],
                           np.array(gammas, dtype=float))

    return bundles


def sg(eta_rule: Optional[Rule] = None) -> AlgorithmKind:
    """Decaying-step gradient descent, x - eta_k g with m = g; default
    eta_k = (k+1)^(-1/2)."""
    eta_rule = (lambda k: (k + 1.0) ** -0.5) if eta_rule is None else eta_rule
    return AlgorithmKind("sg", 1, _momentum_stream(1.0, eta_rule), normalized=False)


def sg_pm(gamma_rule: Optional[Rule] = None, eta_rule: Optional[Rule] = None) -> AlgorithmKind:
    """Normalized Polyak momentum, m = (1 - gamma) m_prev + gamma g(x) with
    gamma from the previous iteration; defaults gamma_k = (k+1)^(-1/2),
    eta_k = (k+1)^(-3/4)."""
    gamma_rule = (lambda k: (k + 1.0) ** -0.5) if gamma_rule is None else gamma_rule
    eta_rule = (lambda k: (k + 1.0) ** -0.75) if eta_rule is None else eta_rule
    return AlgorithmKind("sg-pm", 1, _momentum_stream(gamma_rule, eta_rule))


def nigt(gamma: float, eta: float) -> AlgorithmKind:
    """Implicit gradient transport: the q = 1 kernel with one constant
    (gamma, eta) bundle, so it matches mem on a constant q = 1 stream."""
    _refuse(gamma, eta, lambda g: 0.0 < g < 1.0, "(0, 1)")
    thetas = solve_weights_closed_form([gamma])
    row = (np.array([eta], dtype=float), np.array([[gamma]], dtype=float), thetas[None], thetas)
    return AlgorithmKind("nigt", 1, lambda k0, k1: ParamsBlock(
        k0, *(np.repeat(c, k1 - k0, axis=0) for c in row)))


def _step(kind: AlgorithmKind, state: OptimizerState, oracle: Oracle, xi) -> OptimizerState:
    """One iteration of kind at state.k on the draw xi."""
    return mem_step(state, kind.bundles(state.k, state.k + 1), oracle, xi, kind.normalized)


def sg_step(state: OptimizerState, eta: float, oracle: Oracle, xi) -> OptimizerState:
    """One step of sg() at a constant eta."""
    return _step(sg(eta), state, oracle, xi)


def sgpm_step(
    state: OptimizerState, gamma: float, eta: float, oracle: Oracle, xi
) -> OptimizerState:
    """One step of sg_pm() at a constant (gamma, eta)."""
    return _step(sg_pm(gamma, eta), state, oracle, xi)


def nigt_step(
    state: OptimizerState, gamma: float, eta: float, oracle: Oracle, xi
) -> OptimizerState:
    """One step of nigt(gamma, eta)."""
    return _step(nigt(gamma, eta), state, oracle, xi)


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


# not Sequence[TrajectoryRecord]: typing caches that alias, and with it this
# module's classes, past a fresh import of momex
class Trajectory(Sequence):
    """A run's logged rows as columns, one array per TrajectoryRecord field
    (k and oracle_calls int64); rows are built only when read: an index
    gives a TrajectoryRecord, a slice a tuple of them, repr the tuple's."""

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["k"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(TrajectoryRecord, *(c[i].tolist() for c in self.columns.values())))
        return TrajectoryRecord(*(c[i].item() for c in self.columns.values()))

    def __iter__(self):
        for i in range(0, len(self), 4096):
            yield from self[i : i + 4096]

    def __repr__(self) -> str:
        return repr(self[:])


@dataclass(frozen=True, eq=False)
class RunResult:
    """One run's rows, final state ((n,) arrays) and stored iterates.
    records is the rows' column view; metric_grad_evals counts its rows.
    status is "completed", "wall-clock" (stopped by the ceiling) or
    "non-finite at k": iteration k left a momentum norm or next iterate
    that is not finite. Nothing is frozen; the rows show what followed."""

    records: Trajectory
    state: OptimizerState
    iterates: Tuple[np.ndarray, ...]
    metric_grad_evals: int
    status: str = "completed"


# A block of at most _BLOCK_MAX iterations shares one draw array and one
# batched metric evaluation per group; each block array (iterations x the
# largest group's rows x n) holds at most _BLOCK_VALUES values, so memory
# stays bounded at any size.
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

    Kinds of one (q, normalized, iterations) form a group, stepped as one
    state from the first block to the last: (K S, n) arrays for K such
    kinds, one kernel step per iteration; a kind alone is a group with
    K = 1. Per block, the (seed, k) draws are made once by one draw_block
    call and tiled across a group, each member's bundles are read from its
    own stream, and the metrics are evaluated once for the iterations any
    member logs, kept as the group's k, times and (rows, K S) columns. Each
    (kind, seed) is split off once at the end, its records a Trajectory
    over its rows of those columns. Every run is bit for bit what it is
    alone (elapsed_seconds aside). The clock is read once per iteration of
    a group, so a wall-clock ceiling stops every member of a group at the
    same iteration, and each member's rows are a prefix of its run alone.
    """
    x0, S, seeds = np.asarray(x0, dtype=float), len(seeds), tuple(seeds)
    if len({len(kinds), len(budgets), len(log_strides)}) > 1 or not kinds or not S or x0.ndim != 1:
        raise ValueError(f"{len(kinds)} kinds, {len(budgets)} budgets, {len(log_strides)} "
                         f"log strides, {S} seeds and x0 of shape {x0.shape}")
    if min(budgets) < 0 or min(log_strides) < 1:
        raise ValueError(f"budget must be >= 0 and log_stride >= 1: {budgets}, {log_strides}")
    if wall_seconds is not None and not wall_seconds > 0.0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    f0, t0 = problem.value(x0), time.perf_counter()
    groups = {}  # (q, normalized, iterations) -> the kinds' indices, in order
    for i, kind in enumerate(kinds):
        groups.setdefault((kind.q, kind.normalized, budgets[i]), []).append(i)
    # per group: state, carried row, k, logged blocks, X blocks, first non-finite k per row
    state, carry, at, logs, Xs, bad_at = {}, {}, {}, {}, {}, {}
    for g, members in groups.items():
        st = initial_state(np.tile(x0, (S * len(members), 1)), g[0])
        state[g] = (st.x_prev, st.x_cur, st.m, st.zero_steps, st.zs)
        carry[g] = tuple(np.repeat(c, len(members), axis=0) for c in (
            st.carry.eta, st.carry.gammas, st.carry.thetas, st.carry.theta_sum))
        at[g], logs[g], Xs[g] = 0, [], []
        bad_at[g] = np.full(S * len(members), -1)
    strides = {g: {log_strides[i] for i in members} for g, members in groups.items()}
    oracle = functools.partial(stochastic_grad, problem, noise)

    def metrics(X, M):  # one gradient and one value call for all rows
        G, F = problem.gradient(X), problem.value(X)
        rel = F / f0 if f0 != 0.0 else np.full(F.shape, np.nan)
        return F, rel, _norm(G), _norm(M - G)

    rows = S * max(map(len, groups.values()))  # of the largest group's state
    block, stopped = max(1, min(_BLOCK_MAX, _BLOCK_VALUES // (rows * x0.size))), False
    wall = math.inf if wall_seconds is None else wall_seconds
    for k0 in range(0, max(budgets), block):
        k1 = min(k0 + block, max(budgets))
        xis = draw_block(noise, problem.dim, seeds, k0, k1)
        for g, members in groups.items():
            _, normalized, budget = g
            if stopped or budget <= k0:
                continue
            end = min(k1, budget)
            tiled = np.tile(xis[: end - k0], (1, len(members)) + (1,) * (xis.ndim - 2))
            stacked = _stack([kinds[i].bundles(k0, end) for i in members], k0, end - k0, carry[g])
            state[g], n, X, M, T = _steps(state[g], stacked, oracle, tiled, normalized, t0, wall)
            carry[g], at[g], stopped = tuple(c[:, n] for c in stacked), k0 + n, T[n - 1] > wall
            bad = ~(np.isfinite(X[1 : n + 1]).all(-1) & np.isfinite(np.vecdot(M[:n], M[:n])))
            bad_at[g] = np.where((bad_at[g] < 0) & bad.any(0), k0 + bad.argmax(0), bad_at[g])
            # row k pairs x^k (the point the momentum was computed at) with m^k;
            # the group keeps the k any member logs, their times and metric rows
            ks = np.arange(k0, k0 + n)
            on = np.flatnonzero(np.logical_or.reduce(
                [(ks % s == 0) | (ks == budget - 1) for s in strides[g]]))
            logs[g].append((ks[on], T[on], *metrics(X[on], M[on])))
            if store_iterates:
                Xs[g].append(X[1 : n + 1])
        if stopped:
            break

    results, names = [None] * len(kinds), [f.name for f in fields(TrajectoryRecord)]
    for g, members in groups.items():
        (q, _, budget), k, (x_prev, x, m, zero_steps, zs) = g, at[g], state[g]
        zero_steps = np.broadcast_to(zero_steps, len(x))
        logs[g].append((np.array([k]), np.array([time.perf_counter() - t0]),
                        *metrics(x[None], m[None])))
        ks, elapsed, *cols = map(np.concatenate, zip(*logs.pop(g)))  # the columns held once
        calls = np.append((ks[:-1] + 1) * q, k * q)
        ended = "completed" if k == budget else "wall-clock"
        for p, i in enumerate(members):
            on = (ks % log_strides[i] == 0) | (ks == budget - 1) | (ks == k)  # the closing row too
            on = slice(None) if on.all() else on  # then the columns are views
            last = ParamsBlock(k - 1, *(c[p : p + 1] for c in carry[g]))
            results[i] = tuple(RunResult(
                Trajectory(dict(zip(names, (ks[on], *(c[on, r] for c in cols), calls[on],
                                            elapsed[on])))),
                OptimizerState(x_prev[r], x[r], m[r], k, last, k * q, int(zero_steps[r]),
                               tuple(z[r] for z in zs)),
                (x0.copy(), *(y.copy() for X in Xs[g] for y in X[:, r])) if store_iterates else (),
                len(elapsed[on]),  # one exact gradient per logged row
                f"non-finite at {bad_at[g][r]}" if bad_at[g][r] >= 0 else ended,
            ) for r in range(p * S, (p + 1) * S))
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
