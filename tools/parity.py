"""Bit-for-bit parity of momex's outputs between this tree and a git revision.

    python tools/parity.py --against REV

unpacks REV with `git archive` into a temporary directory (the repository
is only read), runs one fixed matrix of momex calls in a child process
against each tree's src/, and compares the two result lists. The matrix:

- run_batch on 3 problems x 3 noise kinds x every kind (mem p = 2, 3, 4,
  sg, sg-pm and nigt), with mixed budgets and log strides across loop
  blocks, and stored iterates; every kind again from the quadratic's
  minimizer (zero directions); every kind plus a q = 1 stream alternating
  gamma 1.0 / 0.5 and the q = 2 mixed stream below at one budget, so that
  kinds of one (q, normalized) shape step as one state, per noise kind
  from an x0 with a -0.0 coordinate; two sg-pm kinds, then two nigt
  kinds, per noise kind at one budget: a group whose members share every
  coefficient; a diverging sg kind beside sg and beside an unnormalized
  momentum kind at one budget; mem p = 3 and sg-pm per noisy kind over
  three loop blocks with the one-word seeds 7 and 2^32 - 1, then with the
  two-word seed 2^32 + 5 beside them; a diverging run (non-finite status);
  wall-clock stops under a counting clock, mid-block and on a block's last
  step, of two kinds of other q and of a group of three q = 1 kinds with
  stored iterates; mem_step on a stack of runs with a zero-direction row,
  and on one run's (n,) state at q = 2 and 3 from initial_state (whose
  carry has every gamma 1); the quadratic gate's shape (mem p = 3,
  noise-free, n = 10, log stride 1) over two loop blocks;
- datafit and robust of order 300, whose oracle multiplies by A and A^T a
  row block at a time: value and gradient on a (3, 2, n) stack and on a
  point, and run_batch of mem p = 3 and 4 with elementwise noise over two
  seeds and two loop blocks;
- a custom q = 2 stream whose gammas mix 1.0 with 0.5, through run_batch
  and through mem_step from a stack with a -0.0 coordinate and a
  non-finite x_prev; two q = 1 streams in one group whose thetas differ
  only in the sign of a zero, on a gradient with a -0.0 coordinate; an
  oracle returning too many gradients;
- compare (with a diverging config), grid_search, run_experiment and
  verify_all at small sizes;
- the schedule's oracles and measurements on a fixed grid: params_p3,
  p3_arrays, schedule_arrays, stacked solve_weights_linear,
  weight_sum_closed_form, check_potential_inequality with the signed
  contraction it compares with 0, and validate's two flags; stacks with a
  system just past and one just inside the dense solve's condition limit;
- noise_unbiasedness_check of both noise kinds at dims 1, 2 and 20, over
  several blocks of its draws;
- bound_sweep, weight_residual_sweep and sum_identity_sweep for p = 2..6
  at a k_max past several boundaries of the sweeps' chunks;
- the CLI's run (csv, json and --out), compare and verify.

The matrix calls the API as it stands since the kernel came to read the
draw itself (7f69c18); older trees are not supported. It runs on trees
where one iteration's bundle is a type of its own (the type of
init_params' warm-up row) and on trees where it is a one-row
ParamsBlock: the matrix builds its hand-made bundles and per-k streams
as each tree takes them, and records every bundle as its row (k, eta,
gammas, thetas, theta_sum) in Python numbers, so the entries of two such
trees compare one to one.

Each result is recorded as its repr (arrays at full precision) and the
json.dumps of its plain form, with elapsed_seconds masked: the only field
that may differ between two runs of the same code. The first difference is
printed and the exit status is 1; no difference exits 0, and a matrix
that fails to run in either tree exits 2. Both trees run on the same host
and numpy, so no tolerance and no golden file is needed.

`python tools/parity.py --collect OUT` runs the matrix once against the
momex that Python imports and writes the result list to OUT as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Sequence
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
KIND_NAMES = ("mem:2", "mem:3", "mem:4", "sg", "sg-pm", "nigt")
NOISE_KINDS = ("none", "scalar-gaussian-envelope", "elementwise-gaussian-envelope")

_MASKS = (
    (re.compile(r"elapsed_seconds=[^,)]*"), "elapsed_seconds=*"),  # repr
    (re.compile(r'"elapsed_seconds": [^,}\n]*'), '"elapsed_seconds": "*"'),  # json
)


def _mask(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _mask_text(text: str) -> str:
    """A CLI output with elapsed_seconds masked: the last column of a
    records CSV, or the field of a JSON document."""
    if not text.startswith("k,f_val,"):
        return _mask(text)
    return "".join(re.sub(r",[^,\r\n]*(\r?\n)?$", r",*\1", line)
                   for line in text.splitlines(keepends=True))


def _plain(obj):
    """obj as JSON-native values: dataclasses as dicts, arrays with dtype
    and shape, numpy scalars tagged with their type, and any sequence but a
    string (a tuple of records, or a run's row view over its columns) as a
    list of its items."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"@": type(obj).__name__,
                **{f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape), "values": obj.tolist()}
    if isinstance(obj, np.generic):
        return {"@": type(obj).__name__, "value": obj.item()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, Sequence) and not isinstance(obj, str):
        return [_plain(v) for v in obj]
    return obj


def _row(bundle) -> tuple:
    """A bundle's row (k, eta, gammas, thetas, theta_sum) in Python
    numbers, whether its type holds one iteration (k) or a block (k0)."""
    k = bundle.k0 if hasattr(bundle, "k0") else bundle.k
    (eta,), gammas, thetas, (theta_sum,) = (np.ravel(getattr(bundle, c)).tolist() for c in (
        "eta", "gammas", "thetas", "theta_sum"))
    return int(k), eta, tuple(gammas), tuple(thetas), theta_sum


def _is_bundle(obj) -> bool:
    """One iteration's bundle: what holds a theta_sum for one k."""
    return hasattr(obj, "theta_sum") and np.size(obj.theta_sum) == 1


def _flatten_bundles(obj):
    """obj with every bundle in it, inside dataclasses, lists and tuples,
    replaced by its _row; obj itself when it holds none."""
    if _is_bundle(obj):
        return _row(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changed = {f.name: v for f in dataclasses.fields(obj)
                   if (v := _flatten_bundles(getattr(obj, f.name))) is not getattr(obj, f.name)}
        return dataclasses.replace(obj, **changed) if changed else obj
    if type(obj) in (list, tuple):
        items = [_flatten_bundles(v) for v in obj]
        return type(obj)(items) if any(a is not b for a, b in zip(items, obj)) else obj
    return obj


def entry(label: str, obj) -> list:
    """[label, masked repr, masked json] of one result, bundles as rows."""
    obj = _flatten_bundles(obj)
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        text = repr(obj)
    return [label, _mask(text), _mask(json.dumps(_plain(obj), sort_keys=True))]


class CountingClock:
    """A stand-in for the time module whose perf_counter reads 0, 1, 2, ..
    on successive calls."""

    def __init__(self):
        self.calls = -1

    def perf_counter(self) -> float:
        self.calls += 1
        return float(self.calls)


def _one_row(m, k, eta, gammas, thetas, theta_sum):
    """The bundle (k, eta, gammas, thetas, theta_sum) as the tree's
    mem_step and validate take it, of the type of its warm-up row
    init_params: a type of its own in older trees, a one-row ParamsBlock
    since."""
    sch = m.schedule
    bundle = type(sch.init_params(1))
    if bundle is not sch.ParamsBlock:
        return bundle(k, eta, gammas, thetas, theta_sum)
    return sch.ParamsBlock(k, *(np.array([v], dtype=float) for v in (eta, gammas, thetas,
                                                                     theta_sum)))


def _bundle(m, kind, k):
    """The bundle of iteration k from the kind's stream, as the tree's
    mem_step takes it."""
    block = kind.bundles(k, k + 1)
    return block if type(m.schedule.init_params(1)) is m.schedule.ParamsBlock else _one_row(
        m, *_row(block))


def _per_k(m, row):
    """The block stream of a per-k rule row(k) -> (eta, gammas, thetas,
    theta_sum), written as the block's columns."""
    return lambda k0, k1: m.schedule.ParamsBlock(
        k0, *(np.array(c, dtype=float) for c in zip(*map(row, range(k0, k1)))))


def _kinds(m):
    opt, sch = m.optimizer, m.schedule
    return [opt.mem(sch.ScheduleConfig(p=p, q=p - 1)) for p in (2, 3, 4)] + [
        opt.sg(lambda k: 0.01), opt.sg_pm(), opt.nigt(0.3, 0.05)]


def _problem(m, name: str):
    prob = m.problems
    if name == "quadratic":
        return prob.quadratic_problem(7, conditioning=20.0)
    make = prob.datafit_problem if name == "datafit" else prob.robust_problem
    return make(prob.generate_synthetic(9, seed=2))


def run_batch_section(m):
    """run_batch over problems x noises x kinds, across loop blocks."""
    out = []
    for name in ("datafit", "robust", "quadratic"):
        problem = _problem(m, name)
        for noise_kind in NOISE_KINDS:
            noise = m.problems.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
            x0 = np.full(problem.dim, 0.6)
            res = m.optimizer.run_batch(
                _kinds(m), problem, noise, x0, [300, 530, 257, 513, 256, 1], [3, 4],
                [5, 7, 3, 50, 256, 1], store_iterates=(name, noise_kind) == ("datafit", "none"))
            out += [entry(f"run_batch {name} {noise_kind} {kind}", r)
                    for kind, r in zip(KIND_NAMES, res)]
    problem = m.problems.quadratic_problem(7, conditioning=20.0)
    for noise_kind in NOISE_KINDS:
        noise = m.problems.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
        res = m.optimizer.run_batch(_kinds(m), problem, noise, np.zeros(7), [257] * 6, [0, 1],
                                    [13] * 6)
        out += [entry(f"run_batch zero-direction {noise_kind} {kind}", r)
                for kind, r in zip(KIND_NAMES, res)]
    # equal budgets: the kinds of one (q, normalized) shape step as one state
    kinds = _kinds(m) + [_alternating(m), _mixed_stream(m)]
    names = KIND_NAMES + ("alternating", "mixed")
    for noise_kind in NOISE_KINDS:
        noise = m.problems.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
        problem = _problem(m, "datafit")
        x0 = np.full(problem.dim, 0.6)
        x0[2] = -0.0
        res = m.optimizer.run_batch(kinds, problem, noise, x0, [300] * len(kinds), [3, 4],
                                    [7, 1, 13, 5, 300, 2, 9, 11], store_iterates=True)
        out += [entry(f"run_batch equal budgets {noise_kind} {kind}", r)
                for kind, r in zip(names, res)]
    # groups whose members share every coefficient, so each is a Python float
    opt = m.optimizer
    for noise_kind in NOISE_KINDS:
        noise = m.problems.NoiseModel(noise_kind, 0.0 if noise_kind == "none" else 2.0)
        problem = _problem(m, "datafit")
        for label, pair in (("sg-pm", [opt.sg_pm(), opt.sg_pm()]),
                            ("nigt", [opt.nigt(0.3, 0.05), opt.nigt(0.3, 0.05)])):
            res = opt.run_batch(pair, problem, noise, np.full(problem.dim, 0.6), [300] * 2,
                                [3, 4], [7, 1])
            out.append(entry(f"run_batch shared coefficients {noise_kind} {label}", res))
    # seeds of one 32-bit word, then a two-word seed beside them in every block
    problem, kinds = _problem(m, "datafit"), _kinds(m)[1:5:3]  # mem p = 3 and sg-pm
    for noise_kind in NOISE_KINDS[1:]:
        noise = m.problems.NoiseModel(noise_kind, 2.0)
        for seeds in ([7, 2**32 - 1], [7, 2**32 + 5, 2**32 - 1]):
            res = m.optimizer.run_batch(kinds, problem, noise, np.full(problem.dim, 0.6),
                                        [600, 530], seeds, [7, 11])
            out += [entry(f"run_batch seeds {seeds} {noise_kind} {kind}", r)
                    for kind, r in zip(("mem:3", "sg-pm"), res)]
    steep = m.problems.quadratic_problem(5, conditioning=1000.0)
    heavy = opt.AlgorithmKind("heavy-ball", 1, opt.sg_pm(lambda k: 0.5, lambda k: 0.001).bundles,
                              normalized=False)
    for label, neighbour, budget in (("sg", opt.sg(lambda k: 0.01), 150),
                                     ("heavy-ball", heavy, 104)):
        pair = opt.run_batch([opt.sg(lambda k: 1.0), neighbour], steep, m.problems.NoiseModel(),
                             np.ones(5), [budget] * 2, [0, 1], [1, 1], store_iterates=True)
        out.append(entry(f"run_batch stacked sg and {label}, sg non-finite", pair))
    gate = m.optimizer.run(_kinds(m)[1], m.problems.quadratic_problem(10, conditioning=10.0),
                           m.problems.NoiseModel(), np.array([1.0, -1.0] * 5), 400, seed=0)
    out.append(entry("run quadratic gate shape, two blocks", gate))
    diverging = m.optimizer.run(m.optimizer.sg(lambda k: 1.0),
                                m.problems.quadratic_problem(5, conditioning=1000.0),
                                m.problems.NoiseModel(), np.ones(5), 150, seed=0)
    out.append(entry("run non-finite", diverging))
    return out


def wide_section(m):
    """Problems of order 300: rows = 108 and 300 is not a multiple of it,
    so A x and A^T r run as two row blocks, the last of 192 rows."""
    out, prob = [], m.problems
    X = np.random.default_rng(3).standard_normal((3, 2, 300)) * 0.1
    noise = prob.NoiseModel("elementwise-gaussian-envelope", 2.0)
    kinds = _kinds(m)[1:3]  # mem p = 3 and 4
    for name, make in (("datafit", prob.datafit_problem), ("robust", prob.robust_problem)):
        problem = make(prob.generate_synthetic(300, seed=2))
        for label, x in (("stack", X), ("point", X[1, 0])):
            out.append(entry(f"wide {name} value and gradient on a {label}",
                             (problem.value(x), problem.gradient(x))))
        res = m.optimizer.run_batch(kinds, problem, noise, np.full(300, 0.05), [70, 61], [0, 1],
                                    [1, 9])
        out += [entry(f"wide {name} run_batch {kind}", r)
                for kind, r in zip(("mem:3", "mem:4"), res)]
    return out


def wall_clock_section(m):
    """Wall-clock stops under a counting clock: the loop reads the clock
    once at its start and once per iteration of a group, so each ceiling
    stops it at a fixed iteration of a fixed group; two kinds of other q,
    then one group of three q = 1 kinds with stored iterates, stopped
    inside a block and on a block's last step."""
    out, real = [], m.optimizer.time
    noise = m.problems.NoiseModel("scalar-gaussian-envelope", 1.0)
    kinds = _kinds(m)[1:4:2]  # mem p = 3 and sg
    try:
        for wall in (100.5, 255.5, 256 + 100.5, 256 + 255.5, 2 * 256 + 300.5):
            m.optimizer.time = CountingClock()
            res = m.optimizer.run_batch(kinds, m.problems.quadratic_problem(10, conditioning=4.0),
                                        noise, np.ones(10), [1000, 700], [0, 1], [50, 3],
                                        wall_seconds=wall)
            out.append(entry(f"wall-clock stop at {wall}", res))
        group = [_kinds(m)[0], *_kinds(m)[4:]]  # mem p = 2, sg-pm and nigt: one q = 1 group
        for wall in (100.5, 255.5, 256 + 100.5):
            m.optimizer.time = CountingClock()
            res = m.optimizer.run_batch(group, m.problems.quadratic_problem(10, conditioning=4.0),
                                        noise, np.ones(10), [1000] * 3, [0, 1], [10, 3, 7],
                                        wall_seconds=wall, store_iterates=True)
            out.append(entry(f"wall-clock stop of a group at {wall}", res))
    finally:
        m.optimizer.time = real
    return out


def mem_step_section(m):
    """mem_step on a stack of three runs, one at the minimizer, then on one
    run's (n,) state at q = 2 and 3, on scalar draws."""
    opt, prob = m.optimizer, m.problems
    problem = prob.quadratic_problem(5, conditioning=3.0)
    noise = prob.NoiseModel("elementwise-gaussian-envelope", 1.5)
    kind = opt.mem(m.schedule.ScheduleConfig(p=3, q=2))
    state = opt.initial_state(np.array([np.zeros(5), np.linspace(-1.0, 1.0, 5),
                                        np.full(5, 0.3)]), kind.q)
    oracle = lambda z, xi: prob.stochastic_grad(problem, noise, z, xi)
    out = []
    for k in range(6):
        xi = np.array([prob.draw_sample(noise, 5, s, k) for s in range(3)])
        state = opt.mem_step(state, _bundle(m, kind, k), oracle, xi)
        out.append(entry(f"mem_step stack k={k}", state))
    scalar = prob.NoiseModel("scalar-gaussian-envelope", 1.5)
    oracle = lambda z, xi: prob.stochastic_grad(problem, scalar, z, xi)
    for p in (3, 4):
        kind = opt.mem(m.schedule.ScheduleConfig(p=p, q=p - 1))
        state = opt.initial_state(np.linspace(-1.0, 1.0, 5), kind.q)
        for k in range(5):
            xi = prob.draw_sample(scalar, 5, 0, k)
            state = opt.mem_step(state, _bundle(m, kind, k), oracle, xi)
            out.append(entry(f"mem_step (n,) q={kind.q} k={k}", state))
    return out


def _mixed_stream(m):
    """A custom q = 2 per-k stream whose gammas mix 1.0 with 0.5; its
    weights sum to one at k = 0 and 3 (mod 4)."""
    rows = [((1.0, 1.0), (0.5, 0.5)), ((1.0, 0.5), (0.6, -0.2)),
            ((0.5, 1.0), (0.3, 0.1)), ((0.5, 0.5), (0.7, 0.3))]
    return m.optimizer.AlgorithmKind("mixed", 2, _per_k(m, lambda k: (
        0.05, *rows[k % 4], sum(rows[k % 4][1]))))


def _alternating(m):
    """A custom q = 1 per-k stream whose gamma alternates 1.0 / 0.5 and whose
    weight is 1.0 (m dropped) at every third k."""
    return m.optimizer.AlgorithmKind("alternating", 1, _per_k(m, lambda k: (
        0.05, (1.0 if k % 2 == 0 else 0.5,), (1.0 if k % 3 == 0 else 0.4,),
        1.0 if k % 3 == 0 else 0.4)))


def _signed_zero(m, sign):
    """A custom q = 1 stream at gamma = 1 whose weight is 1.5 at k = 0,
    sign * 0.0 at k = 1 and 0.5 after."""
    theta = lambda k: 1.5 if k == 0 else sign * 0.0 if k == 1 else 0.5
    return m.optimizer.AlgorithmKind(f"zero{sign:+.0f}", 1, _per_k(m, lambda k: (
        0.05, (1.0,), (theta(k),), theta(k))))


def custom_stream_section(m):
    """The mixed stream through run_batch across a loop block, and through
    mem_step from a stack whose rows hold a -0.0 coordinate and a
    non-finite x_prev: a query point at gamma = 1 is x itself, bit for bit,
    whatever x_prev holds. Last, the error for an oracle that returns
    another number of gradients than there are weights."""
    opt, prob = m.optimizer, m.problems
    kind, out = _mixed_stream(m), []
    for name, noise in (("datafit", prob.NoiseModel("scalar-gaussian-envelope", 2.0)),
                        ("quadratic", prob.NoiseModel())):
        problem = _problem(m, name)
        res = opt.run_batch([kind], problem, noise, np.full(problem.dim, 0.6), [300], [0, 1],
                            [7], store_iterates=True)
        out.append(entry(f"mixed stream {name}", res))
    problem = prob.quadratic_problem(5, conditioning=3.0)
    oracle = lambda z, xi: prob.stochastic_grad(problem, prob.NoiseModel(), z, xi)
    x = np.array([[-0.0, 0.5, -1.0, 0.25, 2.0], np.linspace(-1.0, 1.0, 5), np.full(5, -0.0)])
    x_prev = x.copy()
    x_prev[1, 2:4] = (np.inf, np.nan)
    for gammas in ((1.0, 1.0), (1.0, 0.5)):
        carry = _one_row(m, -1, float("nan"), gammas, (0.5, 0.5), 1.0)
        state = opt.OptimizerState(x_prev, x, np.zeros_like(x), 0, carry)
        for k in range(4):
            state = opt.mem_step(state, _bundle(m, kind, k), oracle, np.zeros(3))
            out.append(entry(f"mixed stream mem_step carry={gammas} k={k}", state))
    def gradient(x):  # a -0.0 second coordinate, which weight 1.5 carries into m
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], np.full(x.shape[:-1], -0.0)], axis=-1)

    signed = prob.SmoothProblem("signed-zero", 2, lambda x: 0.5 * np.asarray(x)[..., 0] ** 2,
                                gradient)
    out.append(entry("thetas +0.0 and -0.0 in one group", opt.run_batch(
        [_signed_zero(m, 1), _signed_zero(m, -1)], signed, prob.NoiseModel(), np.full(2, 0.6),
        [6, 6], [0, 1], [1, 1])))
    three = lambda z, xi: np.zeros((3, *z.shape[1:]))
    out.append(entry("mem_step 2 weights for 3 gradients", _outcome(
        opt.mem_step, opt.initial_state(x, 2), _bundle(m, kind, 0), three, 0.0)))
    return out


def harness_section(m):
    """compare, grid_search, run_experiment and verify_all at small sizes."""
    har = m.harness
    base = dict(problem="datafit", synthetic=20, data_seed=1, sigma=2.0, iters=1)
    configs = [har.RunConfig(algorithm="mem", p=3, **base),
               har.RunConfig(algorithm="mem", p=2, **base),
               har.RunConfig(algorithm="sg-pm", gamma=0.1, eta=0.03, **base),
               har.RunConfig(algorithm="nigt", gamma=0.3, eta=0.05, **base),
               har.RunConfig(algorithm="sg", eta=0.01, **base)]
    out = [entry("compare datafit", har.compare(configs, 600, n_seeds=3))]
    quad = dict(problem="quadratic", dim=5, conditioning=1000.0, iters=1)
    out.append(entry("compare diverging", har.compare(
        [har.RunConfig(algorithm="sg", eta=1.0, **quad),
         har.RunConfig(algorithm="mem", p=3, **quad)], 150, n_seeds=2)))
    out.append(entry("grid_search sg-pm", har.grid_search(
        har.RunConfig(algorithm="sg-pm", **base), 120, etas=[0.01, 0.1, 1.0],
        gammas=[0.1, 0.5], n_seeds=2)))
    runs = [
        har.RunConfig(algorithm="mem", p=3, problem="quadratic", dim=10, conditioning=10.0,
                      iters=2000, log_stride=1),
        har.RunConfig(algorithm="mem", p=4, problem="datafit", synthetic=20, sigma=2.0,
                      iters=700, log_stride=9, seed=3),
        har.RunConfig(algorithm="sg-pm", problem="robust", synthetic=20, sigma=1.0,
                      noise="elementwise-gaussian-envelope", iters=500, log_stride=5),
        har.RunConfig(algorithm="nigt", gamma=0.3, eta=0.05, problem="datafit", synthetic=20,
                      sigma=1.0, iters=300, x0="zeros"),
        har.RunConfig(algorithm="sg", eta=0.05, problem="quadratic", dim=6, iters=300),
    ]
    out += [entry(f"run_experiment {i}", har.run_experiment(c)) for i, c in enumerate(runs)]
    out.append(entry("verify_all", har.verify_all(k_max=300, bound_k_max=3000, n_draws=10_000,
                                                  ps=(2, 3, 4))))
    return out


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the result under comparison
        return f"{type(exc).__name__}: {exc}"


def schedule_section(m):
    """The schedule's oracles and measurements in momex.verify on a fixed
    grid."""
    sch, ver, ks = m.schedule, m.verify, [0, 1, 2, 7, 255, 256, 1000, 12345, 10**6, 2**40]
    out = [entry("params_p3", [ver.params_p3(k) for k in ks]),
           entry("p3_arrays", ver.p3_arrays(np.array(ks)))]
    odd = [sch.init_params(3), _one_row(m, 3, 0.1, (0.6, 0.3), (0.9, float("nan")), 0.5),
           _one_row(m, 4, 0.1, (0.5, 0.25), (1.5, -0.2), 1.3)]
    for p in range(2, 7):
        bundles = [sch.params_general(k, p) for k in ks]
        gammas = np.array([_row(b)[2] for b in bundles])
        _, _, g, t, _ = _row(bundles[3])
        odd.append(_one_row(m, 9, 0.1, g, tuple(map(abs, t)), 0.5))
        out += [
            entry(f"schedule_arrays p={p}", ver.schedule_arrays(p, np.array(ks))),
            entry(f"solve_weights_linear stack p={p}",
                  [_outcome(ver.solve_weights_linear, gammas[: n]) for n in (4, 7, 10)]),
            entry(f"weight_sum_closed_form p={p}",
                  [ver.weight_sum_closed_form(g) for g in gammas]),
            entry(f"check_potential_inequality p={p}", _contractions(m, p)),
            entry(f"validate flags p={p}", [(d.theta_sum_in_unit, d.signs_alternate)
                                            for d in map(ver.validate, bundles)]),
        ]
    return out + [
        entry("check_potential_inequality config",
              [ver.check_potential_inequality(k, 4) for k in ks]),
        entry("validate flags, hand-built", [(d.theta_sum_in_unit, d.signs_alternate)
                                             for d in map(ver.validate, odd)]),
        entry("solve_weights_linear at the condition limit", _condition_limit(m)),
        entry("weight sum and dense solve errors",
              [_outcome(f, g) for f in (ver.weight_sum_closed_form, ver.solve_weights_linear)
               for g in ([1.0, 0.4], [0.4, 0.6], [[0.9, 0.6], [0.5, 0.5 - 1e-14]],
                         list(0.5 / np.arange(1, 10)))]),
    ]


def _condition_limit(m) -> list:
    """The dense solve of stacks around gammas (0.5, 0.5 - delta), whose
    equilibrated condition is about 2 / delta: 1.98e-12 lies just past
    COND_LIMIT and 2.02e-12 just inside it."""
    past, inside = [0.5, 0.5 - 1.98e-12], [0.5, 0.5 - 2.02e-12]
    stacks = ([[0.9, 0.6], inside, [0.7, 0.3], past], [inside, [0.6, 0.2]], past, inside)
    return [_outcome(m.verify.solve_weights_linear, np.array(s)) for s in stacks]


def noise_section(m):
    """noise_unbiasedness_check of both noise kinds at dims 1, 2 and 20, at
    a draw count that spans several blocks of the draws (one block at dim 1)."""
    prob, out = m.problems, []
    for dim in (1, 2, 20):
        problem = prob.quadratic_problem(dim, conditioning=3.0)
        for kind in NOISE_KINDS[1:]:
            out.append(entry(f"noise_unbiasedness_check {kind} dim={dim}",
                             m.verify.noise_unbiasedness_check(
                                 problem, prob.NoiseModel(kind, 2.0), np.ones(dim), 20_001, 5)))
    return out


def _contractions(m, p: int) -> list:
    """(signed contraction, check_potential_inequality) at k = 0, 7, .. 2996:
    a change that moves the contraction but not its sign still shows."""
    sch, ver, ks = m.schedule, m.verify, range(0, 3000, 7)
    sums = sch.params_block(p, 0, 3000).theta_sum[::7]
    return [(float(ver._contraction(s, sch.potential_weight(k, p),
                                    sch.potential_weight(k + 1, p), p)),
             ver.check_potential_inequality(k, p)) for k, s in zip(ks, sums)]


def sweep_section(m):
    """The three schedule sweeps past several boundaries of their 2^14-index
    chunks: a result that depends on where the chunks split differs from a
    tree that splits them elsewhere."""
    ver, k_max = m.verify, 50_000
    return [entry(f"sweeps p={p} k_max={k_max}",
                  [ver.bound_sweep(p, k_max), ver.weight_residual_sweep(p, k_max),
                   ver.sum_identity_sweep(p, k_max)]) for p in range(2, 7)]


def cli_section(m, workdir: str):
    """The CLI's run, compare and verify, in process; each entry holds the
    exit code, stdout, stderr and any file written."""
    data = ["--problem", "datafit", "--synthetic", "20", "--sigma", "2"]
    commands = {
        "run csv": ["run", "--alg", "mem", "--p", "3", *data, "--iters", "400", "--seed", "7"],
        "run json": ["run", "--alg", "sg-pm", *data, "--iters", "300", "--format", "json"],
        "run out": ["run", "--alg", "nigt", "--gamma", "0.3", "--eta", "0.05", *data,
                    "--iters", "300", "--out", "run.csv"],
        "run non-finite": ["run", "--alg", "sg", "--eta", "1.0", "--problem", "quadratic",
                           "--dim", "5", "--conditioning", "1000", "--iters", "150"],
        "compare": ["compare", "--algs", "mem:2,mem:1,sg-pm:0.1:0.03,nigt:0.3:0.05", *data,
                    "--budget", "400", "--seeds", "3"],
        "verify": ["verify", "--k-max", "300", "--bound-k-max", "3000", "--draws", "10000",
                   "--out", "verify.json"],
    }
    out, cwd = [], os.getcwd()
    for label, argv in commands.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(workdir)  # --out paths, and so the receipts, are relative
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = m.harness.main(argv)
            files = {}
            for name in ("run.csv", "verify.json"):
                if os.path.exists(name):
                    with open(name, newline="") as fh:
                        files[name] = _mask_text(fh.read())
                    os.remove(name)
        finally:
            os.chdir(cwd)
        out.append(entry(f"cli {label}", {
            "code": code, "stdout": _mask_text(stdout.getvalue()),
            "stderr": stderr.getvalue(), "files": files}))
    return out


def collect(workdir: str) -> list:
    """Every entry of the matrix, run against the momex Python imports."""
    m = modules()
    return (run_batch_section(m) + wide_section(m) + wall_clock_section(m) + mem_step_section(m)
            + custom_stream_section(m) + harness_section(m) + schedule_section(m)
            + sweep_section(m) + noise_section(m) + cli_section(m, workdir))


def modules() -> argparse.Namespace:
    """The momex modules the matrix calls, by short name."""
    return argparse.Namespace(**{name: importlib.import_module(f"momex.{name}") for name in
                                 ("optimizer", "problems", "schedule", "verify", "harness")})


def first_difference(a: list, b: list):
    """None when the two entry lists agree, else a description of the
    first entry where they do not."""
    for x, y in zip(a, b):
        if x == y:
            continue
        if x[0] != y[0]:
            return f"entry labels differ: {x[0]!r} vs {y[0]!r}"
        for what, s, t in (("repr", x[1], y[1]), ("json", x[2], y[2])):
            if s != t:
                i = next((i for i, (c, d) in enumerate(zip(s, t)) if c != d), min(len(s), len(t)))
                lo = max(0, i - 60)
                return (f"{x[0]}: {what} differs at character {i}\n"
                        f"  a: ...{s[lo:i + 60]}...\n  b: ...{t[lo:i + 60]}...")
    if len(a) != len(b):
        return f"{len(a)} entries vs {len(b)}"
    return None


def _collect_in(tree: Path, workdir: str) -> list:
    """The matrix run in a child process against tree/src; exits with
    status 2 when the child fails (its traceback is on standard error)."""
    out = os.path.join(workdir, f"{tree.name}.json")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect", out],
                           env=env, cwd=workdir)
    if child.returncode != 0:
        print(f"parity: the matrix failed against {tree / 'src'}", file=sys.stderr)
        sys.exit(2)
    with open(out) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="git revision to compare with")
    group.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        import momex

        print(f"collecting with {Path(momex.__file__).parent}", file=sys.stderr)
        with tempfile.TemporaryDirectory() as workdir:
            entries = collect(workdir)
        with open(args.collect, "w") as fh:
            json.dump(entries, fh)
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        tree = Path(workdir) / "against"
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", args.against],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        theirs, ours = _collect_in(tree, workdir), _collect_in(REPO, workdir)
    diff = first_difference(theirs, ours)
    if diff is not None:
        print(f"parity: {args.against} (a) and the working tree (b) differ\n{diff}")
        return 1
    print(f"parity: {len(ours)} entries identical to {args.against} "
          f"(repr and json, elapsed_seconds masked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
