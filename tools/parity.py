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
  from an x0 with a -0.0 coordinate; a diverging sg kind beside sg and
  beside an unnormalized momentum kind at one budget; a diverging run
  (non-finite status);
  wall-clock stops under a counting clock, mid-block and on a block's last
  step; mem_step on a stack of runs with a zero-direction row;
- a custom q = 2 stream whose gammas mix 1.0 with 0.5, through run_batch
  and through mem_step from a stack with a -0.0 coordinate and a
  non-finite x_prev; an oracle returning too many gradients;
- compare (with a diverging config), grid_search, run_experiment and
  verify_all at small sizes;
- the schedule's oracles and measurements on a fixed grid: params_p3,
  p3_arrays, schedule_arrays, stacked solve_weights_linear,
  weight_sum_closed_form, check_potential_inequality with the signed
  contraction it compares with 0, and validate's two flags (each looked
  up in momex.verify, else in momex.schedule);
- bound_sweep, weight_residual_sweep and sum_identity_sweep for p = 2..6
  at a k_max past several boundaries of the sweeps' chunks;
- the CLI's run (csv, json and --out), compare and verify.

A few lookups (_xi, _draw, _stream, _weight) let the matrix run on trees
from before and after the kernel came to read the draw itself, kinds
came to hold only a block stream and potential_weight came to return a
float, so both sides of that change can be compared.

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
    and shape, numpy scalars tagged with their type."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"@": type(obj).__name__,
                **{f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape), "values": obj.tolist()}
    if isinstance(obj, np.generic):
        return {"@": type(obj).__name__, "value": obj.item()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def entry(label: str, obj) -> list:
    """[label, masked repr, masked json] of one result."""
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


def _xi(draw):
    """draw_sample's result as the draw itself, on trees that wrap it too."""
    return getattr(draw, "xi", draw)


def _draw(m, xi, seeds, k):
    """The draw as mem_step takes it: xi itself, or on trees whose
    draw_sample wraps the draw with its (seed, k), wrapped the same way."""
    made = m.problems.draw_sample(m.problems.NoiseModel(), 1, 0, 0)
    return xi if isinstance(made, float) else type(made)(xi, seeds, k)


def _bundle(kind, k):
    """The bundle of iteration k from the kind's stream (every tree since the
    block kernel has AlgorithmKind.bundles(k0, k1))."""
    return kind.bundles(k, k + 1).bundles()[0]


def _stream(m, params):
    """A kind's stream for the per-k rule params: stacked with
    ParamsBlock.of, or params itself on trees whose kinds take params(k)."""
    of = getattr(m.schedule.ParamsBlock, "of", None)
    return params if of is None else lambda k0, k1: of(map(params, range(k0, k1)))


def _weight(w):
    """A potential weight as a float, on trees that wrap it in .value too."""
    return getattr(w, "value", w)


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
    opt, steep = m.optimizer, m.problems.quadratic_problem(5, conditioning=1000.0)
    heavy = opt.AlgorithmKind("heavy-ball", 1, opt.sg_pm(lambda k: 0.5, lambda k: 0.001).bundles,
                              normalized=False)
    for label, neighbour, budget in (("sg", opt.sg(lambda k: 0.01), 150),
                                     ("heavy-ball", heavy, 104)):
        pair = opt.run_batch([opt.sg(lambda k: 1.0), neighbour], steep, m.problems.NoiseModel(),
                             np.ones(5), [budget] * 2, [0, 1], [1, 1], store_iterates=True)
        out.append(entry(f"run_batch stacked sg and {label}, sg non-finite", pair))
    diverging = m.optimizer.run(m.optimizer.sg(lambda k: 1.0),
                                m.problems.quadratic_problem(5, conditioning=1000.0),
                                m.problems.NoiseModel(), np.ones(5), 150, seed=0)
    out.append(entry("run non-finite", diverging))
    return out


def wall_clock_section(m):
    """Wall-clock stops under a counting clock: the loop reads the clock
    once at its start and once per iteration, so each ceiling stops it at
    a fixed iteration of a fixed kind."""
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
    finally:
        m.optimizer.time = real
    return out


def mem_step_section(m):
    """mem_step on a stack of three runs, one at the minimizer."""
    opt, prob = m.optimizer, m.problems
    problem = prob.quadratic_problem(5, conditioning=3.0)
    noise = prob.NoiseModel("elementwise-gaussian-envelope", 1.5)
    kind = opt.mem(m.schedule.ScheduleConfig(p=3, q=2))
    state = opt.initial_state(np.array([np.zeros(5), np.linspace(-1.0, 1.0, 5),
                                        np.full(5, 0.3)]), kind.q)
    oracle = lambda z, xi: prob.stochastic_grad(problem, noise, z, xi)
    out = []
    for k in range(6):
        xi = np.array([_xi(prob.draw_sample(noise, 5, s, k)) for s in range(3)])
        state = opt.mem_step(state, _bundle(kind, k), oracle, _draw(m, xi, (0, 1, 2), k))
        out.append(entry(f"mem_step stack k={k}", state))
    return out


def _mixed_stream(m):
    """A custom q = 2 per-k stream whose gammas mix 1.0 with 0.5; its
    weights sum to one at k = 0 and 3 (mod 4)."""
    sch = m.schedule
    rows = [((1.0, 1.0), (0.5, 0.5)), ((1.0, 0.5), (0.6, -0.2)),
            ((0.5, 1.0), (0.3, 0.1)), ((0.5, 0.5), (0.7, 0.3))]
    return m.optimizer.AlgorithmKind("mixed", 2, _stream(m, lambda k: sch.IterationParams(
        k, 0.05, *rows[k % 4], sum(rows[k % 4][1]))))


def _alternating(m):
    """A custom q = 1 per-k stream whose gamma alternates 1.0 / 0.5 and whose
    weight is 1.0 (m dropped) at every third k."""
    sch = m.schedule
    return m.optimizer.AlgorithmKind("alternating", 1, _stream(m, lambda k: sch.IterationParams(
        k, 0.05, (1.0 if k % 2 == 0 else 0.5,), (1.0 if k % 3 == 0 else 0.4,),
        1.0 if k % 3 == 0 else 0.4)))


def custom_stream_section(m):
    """The mixed stream through run_batch across a loop block, and through
    mem_step from a stack whose rows hold a -0.0 coordinate and a
    non-finite x_prev: a query point at gamma = 1 is x itself, bit for bit,
    whatever x_prev holds. Last, the error for an oracle that returns
    another number of gradients than there are weights."""
    opt, prob, sch = m.optimizer, m.problems, m.schedule
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
        carry = sch.IterationParams(-1, float("nan"), gammas, (0.5, 0.5), 1.0)
        state = opt.OptimizerState(x_prev, x, np.zeros_like(x), 0, carry)
        for k in range(4):
            state = opt.mem_step(state, _bundle(kind, k), oracle,
                                 _draw(m, np.zeros(3), (0, 1, 2), k))
            out.append(entry(f"mixed stream mem_step carry={gammas} k={k}", state))
    three = lambda z, xi: np.zeros((3, *z.shape[1:]))
    out.append(entry("mem_step 2 weights for 3 gradients", _outcome(
        opt.mem_step, opt.initial_state(x, 2), _bundle(kind, 0), three, _draw(m, 0.0, 0, 0))))
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
    """The schedule's oracles and measurements on a fixed grid. Each name is
    looked up in momex.verify first and in momex.schedule after, so the
    same matrix runs on trees from before and after they moved."""
    def find(name):
        return getattr(m.verify if hasattr(m.verify, name) else m.schedule, name)

    sch, ks = m.schedule, [0, 1, 2, 7, 255, 256, 1000, 12345, 10**6, 2**40]
    out = [entry("params_p3", [find("params_p3")(k) for k in ks]),
           entry("p3_arrays", find("p3_arrays")(np.array(ks)))]
    odd = [sch.init_params(3), sch.IterationParams(3, 0.1, (0.6, 0.3), (0.9, float("nan")), 0.5),
           sch.IterationParams(4, 0.1, (0.5, 0.25), (1.5, -0.2), 1.3)]
    for p in range(2, 7):
        bundles = [sch.params_general(k, p) for k in ks]
        gammas = np.array([b.gammas for b in bundles])
        odd.append(sch.IterationParams(9, 0.1, bundles[3].gammas,
                                       tuple(map(abs, bundles[3].thetas)), 0.5))
        out += [
            entry(f"schedule_arrays p={p}", find("schedule_arrays")(p, np.array(ks))),
            entry(f"solve_weights_linear stack p={p}",
                  [_outcome(find("solve_weights_linear"), gammas[: n]) for n in (4, 7, 10)]),
            entry(f"weight_sum_closed_form p={p}",
                  [find("weight_sum_closed_form")(g) for g in gammas]),
            entry(f"check_potential_inequality p={p}", _contractions(m, find, p)),
            entry(f"validate flags p={p}", [(d.theta_sum_in_unit, d.signs_alternate)
                                            for d in map(find("validate"), bundles)]),
        ]
    return out + [
        entry("check_potential_inequality config",
              [find("check_potential_inequality")(k, 4) for k in ks]),
        entry("validate flags, hand-built", [(d.theta_sum_in_unit, d.signs_alternate)
                                             for d in map(find("validate"), odd)]),
        entry("weight sum and dense solve errors",
              [_outcome(find(name), g) for name in ("weight_sum_closed_form", "solve_weights_linear")
               for g in ([1.0, 0.4], [0.4, 0.6], [[0.9, 0.6], [0.5, 0.5 - 1e-14]],
                         list(0.5 / np.arange(1, 10)))]),
    ]


def _contractions(m, find, p: int) -> list:
    """(signed contraction, check_potential_inequality) at k = 0, 7, .. 2996:
    a change that moves the contraction but not its sign still shows."""
    sch, ks = m.schedule, range(0, 3000, 7)
    sums = sch.params_block(p, 0, 3000).theta_sum[::7]
    return [(float(m.verify._contraction(s, _weight(sch.potential_weight(k, p)),
                                         _weight(sch.potential_weight(k + 1, p)), p)),
             find("check_potential_inequality")(k, p)) for k, s in zip(ks, sums)]


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
    return (run_batch_section(m) + wall_clock_section(m) + mem_step_section(m)
            + custom_stream_section(m) + harness_section(m) + schedule_section(m)
            + sweep_section(m) + cli_section(m, workdir))


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
