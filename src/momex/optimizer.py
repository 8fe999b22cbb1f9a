"""Normalized stochastic gradient methods as parameter streams into one kernel.

Every method runs the same recursion: evaluate the stochastic gradient at
q points extrapolated from the last two iterates, all on one shared noise
draw, fold them into the momentum with signed weights, and step. A method
is an AlgorithmKind: its q, a stream (k0, k1) -> the ParamsBlock of
iterations k0 .. k1 - 1, and whether the step is normalized.

- mem: the order-p schedule, q = p - 1 extrapolations.
- sg-pm (normalized Polyak momentum): gamma = 1, so the query point is x
  itself, and theta = gamma_k.
- nigt (implicit gradient transport): one constant q = 1 bundle, so it IS
  mem on a constant q = 1 stream, bit for bit.
- sg: gamma = theta = 1, so m = g, and an unnormalized step x - eta_k g.

A state holds one run, (n,), or a stack of runs, (S, n), whose rows each
get the bits they would get alone. One kernel steps a state through the
rows of a ParamsBlock, each on its noise draw, and mem_step is its one-row
case; it steps kinds of one q and normalization as one stacked state, each
with its own block. run_batch steps all seeds of several kinds that way,
and run is its one-kind, one-seed case. A run's logged rows are kept as
column arrays; RunResult.records, a Trajectory, builds rows when read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .problems import (  # draw_sample: not called here; perfbench traces optimizer.draw_sample
    NoiseModel, SmoothProblem, _norm, draw_block, draw_sample, stochastic_grad)
from .schedule import (
    IterationParams,
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


# (stacked query points (q, ..., n), the iteration's draw xi: a float, or
# one draw per run, (S,) or (S, n)) -> stacked gradients
Oracle = Callable[[np.ndarray, Union[float, np.ndarray]], np.ndarray]


def _shared(a: np.ndarray, S: int) -> list:
    """Per-member values a, (K, n, ...) floats or bools, as one entry per
    position of (n, ...) in order: the Python float (or bool) that all K S
    rows share, else the (K S, 1) column of each row's value, member i's at
    rows i*S .. (i+1)*S - 1. Sharing is decided on the bits, so -0.0 and
    +0.0 differ and a NaN is shared with itself."""
    flat = a[0].ravel().tolist()
    bits = a if a.dtype == bool else a.view(np.uint64)
    same = (bits == bits[:1]).all(0).ravel()
    if same.all():
        return flat
    cols = np.repeat(a.reshape(len(a), -1).T, S, axis=1)[..., None]
    return [v if s else c for v, s, c in zip(flat, same.tolist(), cols)]


def _steps(
    states: Sequence[OptimizerState], blocks: Sequence[ParamsBlock], oracle: Oracle,
    xis: Sequence, normalized: bool, stop: Callable[[], bool] = lambda: False,
) -> Tuple[list, np.ndarray, np.ndarray]:
    """The recursion every method runs, for a group of members at one
    k0 = state.k with one q, each member a state and the block of its kind,
    stepped as one state: their rows stacked in member order, one draw of
    xis per iteration for all of them. Iteration k queries the oracle once,
    at the q points z = x + ((1 - gamma)/gamma)(x - x_prev) for the carried
    (previous-iteration) gammas, stacked as (q, ..., n), all on the draw
    xis[k - k0]; folds them into m = (1 - sum(theta)) m + sum theta_t g_t
    with the carried thetas; then steps with row k's eta: a fixed length
    along m/||m||, or eta m when not normalized; row k becomes the carry.
    stop() after an iteration ends the block there. Returns each member's
    state after the block and the group's x^k0 .. and m^k0 .., stacked.

    A lone member's state may be (n,) or (S, n); several members' are
    (S, n) each. Each coefficient is a Python float where every row shares
    its bits and a per-row column where rows differ, so every row gets the
    bits it gets alone: a row at gamma = 1 takes z = x (x + 0 (x - x_prev)
    would turn -0.0 into +0.0 and inf into NaN), and a row whose weights
    sum to one drops m, as a member alone does.

    Before the first step, one gate checks everything the call reads, and
    its ValueError says what is wrong: every column of each block has one
    row per draw, the block starts at k0, and its gammas and thetas have
    the carry's q; the carried gammas and those of rows 0 .. B-2 lie in
    (0, 1] and every eta is > 0, naming the k of the first bad bundle in
    reading order. Row B-1's gammas are the next call's carry."""
    n, k0, q, K = len(xis), states[0].k, states[0].carry.q, len(states)
    gam, the, eta = [], [], []  # per member; gam[i][j], the[i][j]: carried into row j
    for state, block in zip(states, blocks):  # member after member, as alone
        for name in ("eta", "gammas", "thetas", "theta_sum"):
            rows = len(getattr(block, name))
            if rows != n:
                what = f"{rows} bundles" if name == "eta" else f"{name} has {rows} rows"
                raise ValueError(f"{what} for the {n} iterations {k0}..{k0 + n - 1}")
        if (block.k0, block.gammas.shape[-1]) != (k0, q):
            raise ValueError(f"params are for k={block.k0} with q={block.gammas.shape[-1]}, "
                             f"state is at k={k0} with q={q}")
        if block.thetas.shape[-1] != q:
            raise ValueError(f"thetas have q={block.thetas.shape[-1]}, "
                             f"state is at k={k0} with q={q}")
        gs, es = [state.carry.gammas, *block.gammas.tolist()], block.eta.tolist()
        for j, e in enumerate(es):  # step j reads gs[j], then eta
            for g in gs[j]:
                if not 0.0 < g <= 1.0:
                    k = state.carry.k if j == 0 else k0 + j - 1
                    raise ValueError(f"bundle for k={k}: gamma must be in (0, 1], got {g}")
            if not e > 0.0:
                raise ValueError(f"bundle for k={k0 + j}: eta must be positive, got {e}")
        gam.append(gs)
        the.append([state.carry.thetas, *block.thetas.tolist()])
        eta.append(es)
    # Each coefficient and mask is a flat list of what _shared gives (a list
    # per step would hand the garbage collector n more objects). pts yields
    # step j's q query points as pairs (a, c): z = x where a is True,
    # x + c (x - x_prev) where it is False, and a choice per row where it is
    # a mask; (wa[j], wv[j]) likewise chooses m = 0 or w m, with w =
    # 1 - fsum(thetas) of each member; th yields step j's q thetas.
    S = len(states[0].x_cur)  # member i's rows are i*S .. (i+1)*S - 1
    G, T = (np.array([np.concatenate(([getattr(st.carry, f)], getattr(b, f)[: n - 1]))
                      for st, b in zip(states, blocks)], dtype=float) for f in ("gammas", "thetas"))
    E = np.array([b.eta for b in blocks], dtype=float)
    W, one = np.array([[1.0 - math.fsum(t) for t in ts[:n]] for ts in the]), G == 1.0
    pts, th = zip(_shared(one, S), _shared((1.0 - G) / G, S)), iter(_shared(T, S))
    wa, wv, et = (_shared(c, S) for c in (W == 0.0, W, E))
    at_x = one.all((0, 2)).tolist()
    x_prev, x, m = (np.concatenate([getattr(st, f) for st in states])
                    for f in ("x_prev", "x_cur", "m"))
    # a lone member's state, which may be (n,), goes back unsplit
    part = (lambda a, i: a) if K == 1 else (lambda a, i: a[i * S:(i + 1) * S])
    zero_steps = states[0].zero_steps if K == 1 else np.concatenate(
        [np.broadcast_to(st.zero_steps, S) for st in states])
    # each step's arrays are copied out and freed at once (holding them is slower)
    X, M = np.empty((n + 1, *x.shape)), np.empty((n, *x.shape))
    X[0] = x
    for j, e in enumerate(et):
        # at gamma = 1 the query point is x itself, whatever x_prev holds
        d = None if at_x[j] else x - x_prev
        zs = tuple(x if a is True else x + c * d if a is False else np.where(a, x, x + c * d)
                   for a, c in islice(pts, q))
        grads = oracle(np.array(zs), xis[j])
        if q != len(grads):
            raise ValueError(f"{q} weights for {len(grads)} gradients")
        # weights summing to one drop m outright, so m = g holds exactly
        # even when m is not finite (0 * inf would give NaN)
        a, v = wa[j], wv[j]
        m = 0.0 if a is True else v * m if a is False else np.where(a, 0.0, v * m)
        for t, g in zip(islice(th, q), grads):
            m = m + t * g
        if not normalized:
            x_next, zero = x - e * m, False
        else:
            nm = np.sqrt(np.vecdot(m, m, keepdims=True))  # bitwise np.linalg.norm per row
            if np.count_nonzero(nm) == nm.size:
                x_next, zero = x - (e / nm) * m, False
            else:  # rows with a zero direction keep x; dividing them by 1.0 keeps it quiet
                zero = nm == 0.0
                x_next = np.where(zero, x, x - (e / np.where(zero, 1.0, nm)) * m)
                zero = zero[..., 0]
        x_prev, x, zero_steps = x, x_next, zero_steps + zero
        X[j + 1], M[j] = x, m
        if stop():
            break
    return [OptimizerState(part(x_prev, i), part(x, i), part(m, i), k0 + j + 1,
                           IterationParams(k0 + j, eta[i][j], tuple(gam[i][j + 1]),
                                           tuple(the[i][j + 1]), block.theta_sum[j].item()),
                           state.oracle_calls + (j + 1) * q, part(zero_steps, i),
                           tuple(part(z, i) for z in zs))
            for i, (state, block) in enumerate(zip(states, blocks))], X, M


def mem_step(
    state: OptimizerState,
    params: IterationParams,
    oracle: Oracle,
    xi,
    normalized: bool = True,
) -> OptimizerState:
    """One iteration on the draw xi: the kernel on params as a one-row
    block, at state.k."""
    return _steps([state], [ParamsBlock.of([params])], oracle, [xi], normalized)[0][0]


@dataclass(frozen=True)
class AlgorithmKind:
    """A method as the kernel sees it: q query points per iteration,
    bundles(k0, k1) -> the ParamsBlock of iterations k0 .. k1 - 1, and
    whether the step is normalized. A per-k rule params(k) is the stream
    lambda k0, k1: ParamsBlock.of(map(params, range(k0, k1)))."""

    name: str
    q: int
    bundles: Callable[[int, int], ParamsBlock]
    normalized: bool = True


def mem(schedule: ScheduleConfig) -> AlgorithmKind:
    """The multi-extrapolated method under the order-p schedule."""
    return AlgorithmKind("mem", schedule.q, lambda k0, k1: params_block(schedule.p, k0, k1))


def _momentum_stream(
    gamma_rule: Callable[[int], float], eta_rule: Callable[[int], float]
) -> Callable[[int, int], ParamsBlock]:
    """The q = 1 stream that queries x itself and weighs its gradient by
    gamma_rule(k): ParamsBlock.of of IterationParams(k, eta_rule(k), (1.0,),
    (gamma,), gamma), built as arrays. The rules are read k after k, gamma
    first, and a gamma outside (0, 1] is refused at its k."""

    def bundles(k0: int, k1: int) -> ParamsBlock:
        gammas, etas = [], []
        for k in range(k0, k1):
            gamma = gamma_rule(k)
            if not 0.0 < gamma <= 1.0:
                raise ValueError(f"bundle for k={k}: gamma must be in (0, 1], got {gamma}")
            gammas.append(gamma)
            etas.append(eta_rule(k))
        return ParamsBlock(k0, np.array(etas), np.ones((len(etas), 1)),
                           np.array(gammas, dtype=float)[:, None], np.array(gammas))

    return bundles


def sg(eta_rule: Optional[Callable[[int], float]] = None) -> AlgorithmKind:
    """Decaying-step gradient descent, x - eta_k g with m = g; default
    eta_k = (k+1)^(-1/2)."""
    eta_rule = eta_rule or (lambda k: (k + 1.0) ** -0.5)
    return AlgorithmKind("sg", 1, _momentum_stream(lambda k: 1.0, eta_rule), normalized=False)


def sg_pm(
    gamma_rule: Optional[Callable[[int], float]] = None,
    eta_rule: Optional[Callable[[int], float]] = None,
) -> AlgorithmKind:
    """Normalized Polyak momentum, m = (1 - gamma) m_prev + gamma g(x) with
    gamma from the previous iteration; defaults gamma_k = (k+1)^(-1/2),
    eta_k = (k+1)^(-3/4)."""
    gamma_rule = gamma_rule or (lambda k: (k + 1.0) ** -0.5)
    eta_rule = eta_rule or (lambda k: (k + 1.0) ** -0.75)
    return AlgorithmKind("sg-pm", 1, _momentum_stream(gamma_rule, eta_rule))


def nigt(gamma: float, eta: float) -> AlgorithmKind:
    """Implicit gradient transport: the q = 1 kernel with one constant
    (gamma, eta) bundle, so it matches mem on a constant q = 1 stream."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    thetas = solve_weights_closed_form([gamma])
    row = ParamsBlock.of([IterationParams(
        k=0, eta=eta, gammas=[gamma], thetas=thetas, theta_sum=float(thetas[0]))])
    columns = (row.eta, row.gammas, row.thetas, row.theta_sum)
    return AlgorithmKind("nigt", 1, lambda k0, k1: ParamsBlock(
        k0, *(np.repeat(c, k1 - k0, axis=0) for c in columns)))


def _step(kind: AlgorithmKind, state: OptimizerState, oracle: Oracle, xi) -> OptimizerState:
    """One iteration of kind at state.k on the draw xi."""
    return _steps([state], [kind.bundles(state.k, state.k + 1)], oracle, [xi],
                  kind.normalized)[0][0]


def sg_step(state: OptimizerState, eta: float, oracle: Oracle, xi) -> OptimizerState:
    """One step of sg() at a constant eta."""
    return _step(sg(lambda k: eta), state, oracle, xi)


def sgpm_step(
    state: OptimizerState, gamma: float, eta: float, oracle: Oracle, xi
) -> OptimizerState:
    """One step of sg_pm() at a constant (gamma, eta)."""
    return _step(sg_pm(lambda k: gamma, lambda k: eta), state, oracle, xi)


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

    Kinds of one (q, normalized, iterations) step as one state: all seeds
    of all of them, (K S, n) for K such kinds, one kernel step per
    iteration; a kind alone is a group with K = 1. The groups advance
    block by block, each block's (seed, k) draws made once by one
    draw_block call and tiled across a group, each member's bundles for the
    block read from its own stream, and the metrics evaluated once for the
    iterations any member logs, each member's logged k, calls and times
    (shared by its seeds) and (rows, S) metric columns kept per block and
    concatenated once at the end: a seed's records are a Trajectory over
    its columns. Every run is bit for bit what it is alone (elapsed_seconds
    aside). The clock is read once per iteration of a group, so a
    wall-clock ceiling stops every member of a group at the same iteration,
    and each member's rows are a prefix of its run alone.
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
    states = [initial_state(np.tile(x0, (S, 1)), kind.q) for kind in kinds]
    logs = [[] for _ in kinds]  # per kind and block: k, calls, elapsed, (rows, S) metric columns
    iterates = [[st.x_cur] for st in states]
    bad_at = [np.full(S, -1) for _ in kinds]  # first non-finite iteration per seed
    oracle = lambda z, xi: stochastic_grad(problem, noise, z, xi)

    def metrics(X, M):  # one gradient and one value call for all rows
        G, F = problem.gradient(X), problem.value(X)
        rel = F / f0 if f0 != 0.0 else np.full(F.shape, np.nan)
        return F, rel, _norm(G), _norm(M - G)

    rows = S * max(map(len, groups.values()))  # of the largest group's state
    block, stopped = max(1, min(_BLOCK_MAX, _BLOCK_VALUES // (rows * x0.size))), False
    wall, times = math.inf if wall_seconds is None else wall_seconds, []

    def past_wall():  # the clock is read once after each iteration
        times.append(time.perf_counter() - t0)
        return times[-1] > wall

    for k0 in range(0, max(budgets), block):
        k1 = min(k0 + block, max(budgets))
        xis = draw_block(noise, problem.dim, seeds, k0, k1)
        for (q, normalized, budget), members in groups.items():
            if stopped or budget <= k0:
                continue
            times.clear()
            end = min(k1, budget)
            tiled = np.tile(xis[: end - k0], (1, len(members)) + (1,) * (xis.ndim - 2))
            new, X, M = _steps([states[i] for i in members],
                               [kinds[i].bundles(k0, end) for i in members], oracle, tiled,
                               normalized, past_wall)
            n, stopped = len(times), times[-1] > wall
            bad = ~(np.isfinite(X[1 : n + 1]).all(-1) & np.isfinite(np.vecdot(M[:n], M[:n])))
            # row k pairs x^k (the point the momentum was computed at) with m^k;
            # per log stride, the logged k, their calls and times, and metric rows
            ks = np.arange(k0, k0 + n)
            on = {s: (ks % s == 0) | (ks == budget - 1) for s in {log_strides[i] for i in members}}
            union = np.flatnonzero(np.logical_or.reduce(list(on.values())))
            cols, tm = metrics(X[union], M[union]), np.array(times)
            logged = {s: (ks[w], (ks[w] + 1) * q, tm[w], slice(None) if len(on) == 1 else w[union])
                      for s, w in on.items()}
            for p, (i, st) in enumerate(zip(members, new)):
                states[i], r = st, slice(p * S, (p + 1) * S)
                if store_iterates:
                    iterates[i].extend(X[1 : n + 1, r])
                hit = bad[:, r]
                bad_at[i] = np.where((bad_at[i] < 0) & hit.any(0), k0 + hit.argmax(0), bad_at[i])
                *own, at = logged[log_strides[i]]
                logs[i].append((*own, *(c[at, r] for c in cols)))
        if stopped:
            break

    results, names = [], [f.name for f in fields(TrajectoryRecord)]
    for i, st in enumerate(states):
        logs[i].append((np.array([st.k]), np.array([st.oracle_calls]),
                        np.array([time.perf_counter() - t0]), *metrics(st.x_cur[None], st.m[None])))
        k, calls, elapsed, *cols = map(np.concatenate, zip(*logs[i]))
        zero_steps = np.broadcast_to(st.zero_steps, S)
        ended = "completed" if st.k == budgets[i] else "wall-clock"
        results.append(tuple(
            RunResult(
                Trajectory(dict(zip(names, (k, *(c[:, s] for c in cols), calls, elapsed)))),
                replace(st, x_prev=st.x_prev[s], x_cur=st.x_cur[s], m=st.m[s],
                        zero_steps=int(zero_steps[s]), zs=tuple(z[s] for z in st.zs)),
                tuple(x[s].copy() for x in iterates[i]) if store_iterates else (),
                len(k),  # one exact gradient per logged row
                f"non-finite at {bad_at[i][s]}" if bad_at[i][s] >= 0 else ended,
            )
            for s in range(S)
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
