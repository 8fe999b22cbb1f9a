"""Command-line harness: configs, seeded runs, comparisons, reports.

Subcommands: run (one seeded experiment to CSV or JSON), compare (several
algorithms on one problem at an equal oracle-call budget, medians over
seeds), verify (the full check suite as a JSON report, nonzero exit on any
failure), gen-data (write a synthetic dataset to CSV).

Everything an invocation emits is a pure function of the config and seed,
byte for byte, except elapsed_seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from typing import Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import verify as verify_mod
from .optimizer import (
    AlgorithmKind,
    TrajectoryRecord,
    mem,
    nigt,
    run,
    run_batch,
    sg,
    sg_pm,
)
from .problems import (
    NOISE_KINDS,
    NoiseModel,
    datafit_problem,
    dataset_to_csv,
    generate_synthetic,
    load_csv_dataset,
    quadratic_problem,
    robust_problem,
)
from .schedule import ScheduleConfig, iteration_threshold, theorem_constant

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "RunConfig",
    "TrajectoryRecord",
    "parse_config",
    "build_problem",
    "build_kind",
    "run_experiment",
    "records_to_csv",
    "parse_records",
    "emit",
    "compare",
    "grid_search",
    "verify_all",
    "main",
]

CSV_HEADER = "k,f_val,rel_obj,grad_norm,mom_err,oracle_calls,elapsed_seconds"

# the allowed values of every field that has a fixed set
_CHOICES = {
    "algorithm": ("mem", "sg", "sg-pm", "nigt"),
    "problem": ("datafit", "robust", "quadratic"),
    "noise": NOISE_KINDS,
    "format": ("csv", "json"),
}
# the fields compare's configs must share: its problem flags, and what
# build_problem reads
_PROBLEM_FIELDS = (
    "problem", "synthetic", "dataset", "target", "data_seed",
    "dim", "conditioning", "noise", "sigma", "x0",
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the flag at fault."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _flag(field: str) -> str:
    return "--alg" if field == "algorithm" else "--" + field.replace("_", "-")


def _x0_coords(text: str) -> list:
    """--x0's comma-separated coordinates, each finite."""
    try:
        coords = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError('--x0 must be "ones", "zeros", or a comma-separated vector') from None
    _require(all(map(math.isfinite, coords)), f"--x0 entries must be finite, got {text!r}")
    return coords


@dataclass(frozen=True)
class RunConfig:
    """One experiment, fully determined. All fields are JSON-native.

    Construction validates every field, whatever builds the config: flags,
    a config file, compare's tokens, ``dataclasses.replace`` or a direct
    call. ``algorithm``, ``problem`` and ``iters`` are required. Omitted
    fields are normalized: q becomes p - 1 for mem, conditioning 1.0 for
    the quadratic, noise "scalar-gaussian-envelope" exactly when sigma is
    given (else "none"), and sigma 0.0 when noise is "none". A normalized
    config passes ``replace`` unchanged.

    Raises:
        ConfigError: a field of the wrong type, a value violating its
            constraint, or a field that does not apply to the algorithm or
            problem; the message names the flag.
    """

    algorithm: Optional[str] = None
    problem: Optional[str] = None
    iters: Optional[int] = None
    seed: int = 0
    p: Optional[int] = None
    q: Optional[int] = None
    gamma: Optional[float] = None
    eta: Optional[float] = None
    synthetic: Optional[int] = None
    dataset: Optional[str] = None
    target: str = "target"
    data_seed: int = 0
    dim: Optional[int] = None
    conditioning: Optional[float] = None
    noise: Optional[str] = None
    sigma: Optional[float] = None
    wall_seconds: Optional[float] = None
    x0: str = "ones"
    log_stride: int = 1
    out: Optional[str] = None
    format: str = "csv"

    def __post_init__(self) -> None:
        set_ = lambda name, val: object.__setattr__(self, name, val)
        for name, kind in _KINDS.items():
            val = getattr(self, name)
            types, want = _WANT[kind]
            _require(
                (val is None and getattr(RunConfig, name) is None)
                or (isinstance(val, types) and not isinstance(val, bool)),
                f"{_flag(name)} must be {want}, got {val!r}",
            )
            if kind is float:
                try:
                    finite = val is None or math.isfinite(val)
                except OverflowError:  # an integer beyond the float range
                    finite = False
                _require(finite, f"{_flag(name)} must be finite, got {val!r}")
        for name in ("seed", "data_seed"):
            val = getattr(self, name)
            _require(val >= 0, f"{_flag(name)} must be >= 0, got {val}")

        alg, p, q, gamma, eta = self.algorithm, self.p, self.q, self.gamma, self.eta
        algorithms = _CHOICES["algorithm"]
        _require(alg in algorithms, f"--alg is required and must be one of {algorithms}")
        if alg == "mem":
            _require(
                p is not None,
                "algorithm 'mem' requires --p, the smoothness order its schedule is built for",
            )
            _require(p >= 2, f"--p must be an integer >= 2, got {p}")
            if q is None:
                set_("q", p - 1)
            _require(self.q == p - 1, f"--q must equal p - 1 = {p - 1} for the built-in schedules")
            _require(gamma is None and eta is None, "--gamma/--eta do not apply to mem; the schedule sets them")
        elif alg == "nigt":
            _require(p is None and q is None, "--p/--q do not apply to nigt")
            _require(gamma is not None and 0.0 < gamma < 1.0, "nigt requires --gamma in (0, 1)")
            _require(eta is not None and eta > 0.0, "nigt requires --eta > 0")
        else:
            _require(p is None and q is None, f"--p/--q do not apply to {alg}")
            if alg == "sg":
                _require(gamma is None, "--gamma does not apply to sg")
            elif gamma is not None:
                _require(0.0 < gamma <= 1.0, f"--gamma must lie in (0, 1], got {gamma}")
            if eta is not None:
                _require(eta > 0.0, f"--eta must be positive, got {eta}")

        problem, synthetic, dataset = self.problem, self.synthetic, self.dataset
        problems = _CHOICES["problem"]
        _require(problem in problems, f"--problem is required and must be one of {problems}")
        if problem == "quadratic":
            _require(
                synthetic is None and dataset is None,
                "problem 'quadratic' takes --dim/--conditioning, not --synthetic/--dataset",
            )
            _require(self.dim is not None and self.dim >= 1, "problem 'quadratic' requires --dim >= 1")
            conditioning = 1.0 if self.conditioning is None else float(self.conditioning)
            _require(conditioning >= 1.0, f"--conditioning must be >= 1, got {conditioning}")
            set_("conditioning", conditioning)
        else:
            _require(
                self.dim is None and self.conditioning is None,
                f"--dim/--conditioning apply to quadratic, not {problem}",
            )
            _require(
                (synthetic is None) != (dataset is None),
                f"problem {problem!r} needs exactly one data source: --synthetic N or --dataset PATH",
            )
            if synthetic is not None:
                _require(synthetic >= 1, f"--synthetic must be >= 1, got {synthetic}")

        noise, sigma = self.noise, self.sigma
        if noise is None:
            noise = "none" if sigma is None else "scalar-gaussian-envelope"
        noises = _CHOICES["noise"]
        _require(noise in noises, f"--noise must be one of {noises}, got {noise!r}")
        if noise == "none":
            # 0.0 is what normalization stores, so a normalized config re-validates
            _require(
                sigma is None or sigma == 0.0,
                "--sigma needs a gaussian --noise kind; omit --noise to default to scalar-gaussian-envelope",
            )
            sigma = 0.0
        else:
            _require(sigma is not None and sigma > 0.0, f"--noise {noise!r} requires --sigma > 0")
        set_("noise", noise)
        set_("sigma", float(sigma))

        _require(self.iters is not None and self.iters >= 0, "--iters is required and must be >= 0")
        if self.wall_seconds is not None:
            _require(self.wall_seconds > 0.0, f"--wall-seconds must be positive, got {self.wall_seconds}")
        _require(self.log_stride >= 1, f"--log-stride must be >= 1, got {self.log_stride}")
        if self.x0 not in ("ones", "zeros"):
            _x0_coords(self.x0)
        _require(self.format in _CHOICES["format"], "--format must be csv or json")
        _require(self.out != "", "--out must name a file, got an empty path")
        if gamma is not None:
            set_("gamma", float(gamma))
        if eta is not None:
            set_("eta", float(eta))


# each field's kind, int, float or str, from its annotation (Optional[X] -> X)
_KINDS = {name: (get_args(t) or (t,))[0] for name, t in get_type_hints(RunConfig).items()}
# what a kind's type check accepts and asks for; flags arrive typed, config files may not
_WANT = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _out_path(text: str) -> str:
    # an argparse type, so that argparse's error names the flag; an empty
    # --out is refused rather than taken for no --out
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got an empty path")
    return text


def _int_at_least(lo: int):
    # an argparse type, so that argparse's error names the flag
    def parse(text: str) -> int:
        val = int(text)
        if val < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {val}")
        return val

    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    # argparse calls error() for unknown flags and bad choices; raise
    # instead of exiting so library callers get a ConfigError
    def error(self, message):
        raise ConfigError(message)


def _add_flags(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    """One flag per RunConfig field named, typed and restricted as the field is."""
    for name in names:
        kind = _KINDS[name]
        parser.add_argument(
            _flag(name), dest=name, type=None if kind is str else kind, choices=_CHOICES.get(name)
        )


def _run_parser() -> _Parser:
    p = _Parser(prog="momex run", add_help=False)
    _add_flags(p, list(_KINDS))
    p.add_argument("--config")
    return p


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            vals = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(vals, dict):
        raise ConfigError(f"--config: {path} must hold a JSON object")
    vals.pop("config", None)
    if "alg" in vals:
        _require("algorithm" not in vals, f"--config: {path} gives both 'alg' and 'algorithm'")
        vals["algorithm"] = vals.pop("alg")
    for key in vals:
        _require(key in _KINDS, f"--config: unknown field {key!r} in {path}")
    return vals


def parse_config(argv: Sequence[str], config_file: Optional[str] = None) -> RunConfig:
    """Build a RunConfig from run-subcommand flags over a config file.

    A JSON config file (--config or the second argument) supplies values
    for any flag not given on the command line; explicit flags always win.
    The file's keys are RunConfig's field names, as the ``run --format
    json`` config echo writes them; ``alg`` is accepted for ``algorithm``.
    A null value counts as not given. The merge goes to RunConfig as it
    stands, so its defaults and checks are the only ones.

    Raises:
        ConfigError: unknown flag or file key, unreadable file, or any
            error RunConfig raises; the message names the flag.
    """
    argv = list(argv)
    if argv and argv[0] == "run":
        argv = argv[1:]
    flags = vars(_run_parser().parse_args(argv))
    path = config_file or flags.pop("config")
    flags.pop("config", None)
    file_vals = {} if path is None else _read_config_file(path)
    merged = {k: v for src in (file_vals, flags) for k, v in src.items() if v is not None}
    return RunConfig(**merged)


def build_problem(config: RunConfig):
    """(problem, noise model, initial point) for a validated config."""
    if config.problem == "quadratic":
        problem = quadratic_problem(config.dim, config.conditioning)
    else:
        if config.synthetic is not None:
            data = generate_synthetic(config.synthetic, config.data_seed)
        else:
            data = load_csv_dataset(config.dataset, config.target)
        problem = datafit_problem(data) if config.problem == "datafit" else robust_problem(data)
    noise = NoiseModel(kind=config.noise, sigma_tilde=config.sigma)
    if config.x0 == "ones":
        x0 = np.ones(problem.dim)
    elif config.x0 == "zeros":
        x0 = np.zeros(problem.dim)
    else:
        x0 = np.array(_x0_coords(config.x0))
        _require(x0.size == problem.dim, f"--x0 has {x0.size} coordinates, problem has dimension {problem.dim}")
    return problem, noise, x0


def build_kind(config: RunConfig) -> AlgorithmKind:
    if config.algorithm == "mem":
        return mem(ScheduleConfig(p=config.p, q=config.q))
    if config.algorithm == "nigt":
        return nigt(config.gamma, config.eta)
    # a given --gamma/--eta holds for every k; an omitted one keeps the default rule
    const = lambda v: None if v is None else (lambda k: v)
    if config.algorithm == "sg":
        return sg(const(config.eta))
    if config.algorithm == "sg-pm":
        return sg_pm(const(config.gamma), const(config.eta))
    raise ValueError(f"no algorithm kind for {config.algorithm!r}")


def run_experiment(config: RunConfig):
    """Execute one config; returns (records, summary).

    The summary carries final and minimum metrics plus, when the problem
    publishes certified smoothness constants compatible with the schedule
    order, the aggregate constant and iteration threshold at the reporting
    accuracy 0.1. The noise scale entering that constant is the envelope
    bound sigma_tilde * sqrt(n).
    """
    problem, noise, x0 = build_problem(config)
    kind = build_kind(config)
    result = run(
        kind,
        problem,
        noise,
        x0,
        budget=config.iters,
        seed=config.seed,
        log_stride=config.log_stride,
        wall_seconds=config.wall_seconds,
    )
    records = result.records
    summary = {
        "algorithm": config.algorithm,
        "problem": config.problem,
        "iterations": result.state.k,
        "final_f": records[-1].f_val,
        "final_rel_obj": records[-1].rel_obj,
        "min_grad_norm": min(r.grad_norm for r in records),
        "oracle_calls": result.state.oracle_calls,
        "zero_direction_steps": result.state.zero_steps,
        "metric_grad_evals": result.metric_grad_evals,
        "status": result.status,
    }
    c = problem.constants
    if (
        config.algorithm == "mem"
        and c is not None
        and c.L1 is not None
        and c.f_low is not None
        and c.Lp is not None
        and (c.Lp == 0.0 or c.p == config.p)
    ):
        sigma_bound = 0.0 if noise.kind == "none" else config.sigma * math.sqrt(problem.dim)
        gap = max(problem.value(x0) - c.f_low, 0.0)
        m_const = theorem_constant(config.p, gap, sigma_bound, c.L1, c.Lp)
        summary["epsilon"] = 0.1
        summary["m_const"] = m_const
        summary["k_threshold"] = iteration_threshold(config.p, m_const, 0.1)
    return records, summary


def _fmt(v: float) -> str:
    return repr(float(v))


def records_to_csv(records: Sequence[TrajectoryRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.k},{_fmt(r.f_val)},{_fmt(r.rel_obj)},{_fmt(r.grad_norm)},"
            f"{_fmt(r.mom_err)},{r.oracle_calls},{_fmt(r.elapsed_seconds)}"
        )
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> Tuple[TrajectoryRecord, ...]:
    """Inverse of records_to_csv; round-trips every float exactly."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 7:
            raise ValueError(f"expected 7 cells, got {len(cells)}: {ln!r}")
        out.append(
            TrajectoryRecord(
                k=int(cells[0]),
                f_val=float(cells[1]),
                rel_obj=float(cells[2]),
                grad_norm=float(cells[3]),
                mom_err=float(cells[4]),
                oracle_calls=int(cells[5]),
                elapsed_seconds=float(cells[6]),
            )
        )
    return tuple(out)


def _output(text: str, path: Optional[str] = None, receipt: Optional[dict] = None) -> None:
    """Print text (newline-terminated), or write it to path as is and then
    print the receipt, if any, as one JSON line with the path."""
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    if receipt is not None:
        print(json.dumps({"out": path, **receipt}))


def _payload(records, format: str, config: Optional[RunConfig], summary: Optional[dict]) -> str:
    if format not in _CHOICES["format"]:
        raise ValueError(f"format must be csv or json, got {format!r}")
    if format == "csv":
        return records_to_csv(records)
    return json.dumps(
        {
            "config": None if config is None else asdict(config),
            "summary": summary,
            "records": [asdict(r) for r in records],
        },
        indent=2,
    )


def emit(
    records: Sequence[TrajectoryRecord],
    path: str,
    format: str = "csv",
    config: Optional[RunConfig] = None,
    summary: Optional[dict] = None,
) -> None:
    """Write records to path; csv as specified by CSV_HEADER, json as an
    object with the config echo, the summary, and the record array."""
    _output(_payload(records, format, config, summary), path)


def _label(config: RunConfig) -> str:
    if config.algorithm == "mem":
        return f"mem(q={config.q},p={config.p})"
    if config.algorithm == "nigt":
        return f"nigt(gamma={config.gamma:g},eta={config.eta:g})"
    parts = []
    if config.gamma is not None:
        parts.append(f"gamma={config.gamma:g}")
    if config.eta is not None:
        parts.append(f"eta={config.eta:g}")
    return config.algorithm + (f"({','.join(parts)})" if parts else "")


_fingerprint = attrgetter(*_PROBLEM_FIELDS)


def compare(
    configs: Sequence[RunConfig],
    budget: int,
    n_seeds: int = 10,
    base_seed: int = 0,
    labels: Optional[Sequence[str]] = None,
) -> dict:
    """Run several algorithms on one problem at an equal oracle-call
    budget, across seeds, and tabulate medians.

    Each algorithm gets budget // (calls per iteration) iterations, so the
    cumulative oracle-call counts agree to within one iteration's worth of
    calls. The problem, noise model and initial point are built once, from
    the first config, and each config's AlgorithmKind once; one run_batch
    steps all seeds of every config, each (seed, k) drawn once, and kinds
    of one (q, normalized, iterations) step as one state. The run
    seed varies as base_seed .. base_seed + n_seeds - 1. Outputs depend only
    on (config, seed), bit for bit. wall_seconds and log_stride of the
    configs are ignored. status lists each seed's run status; warnings names
    every median that takes in non-finite finals.

    Raises:
        ValueError: no configs, configs disagreeing on problem or noise,
            labels that repeat, or a budget below one iteration for some
            algorithm.
    """
    if not configs:
        raise ValueError("compare needs at least one configuration")
    if budget < 1:
        raise ValueError(f"budget must be >= 1 oracle call, got {budget}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    fp = _fingerprint(configs[0])
    for c in configs[1:]:
        if _fingerprint(c) != fp:
            raise ValueError(
                "compare configurations must share the problem and noise; "
                f"got {fp} vs {_fingerprint(c)}"
            )
    if labels is None:
        labels = []
        for c in configs:
            base = _label(c)
            label = base
            i = 2
            while label in labels:
                label = f"{base}#{i}"
                i += 1
            labels.append(label)
    elif len(labels) != len(configs):
        raise ValueError(f"{len(labels)} labels for {len(configs)} configurations")
    else:
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(
                    f"label {label!r} is given twice; each configuration needs its own"
                )

    seeds = list(range(base_seed, base_seed + n_seeds))
    kinds = [build_kind(c) for c in configs]
    iterations = [budget // kind.q for kind in kinds]
    for c, kind, iters in zip(configs, kinds, iterations):
        if iters < 1:
            raise ValueError(
                f"budget {budget} is below one iteration ({kind.q} calls) for {_label(c)}"
            )

    problem, noise, x0 = build_problem(configs[0])
    strides = [max(1, iters // 200) for iters in iterations]
    batches = run_batch(kinds, problem, noise, x0, iterations, seeds, strides)
    final, status, series, warnings = {}, {}, {}, []
    for label, results in zip(labels, batches):
        per_seed = [r.records for r in results]
        final[label] = [recs[-1].rel_obj for recs in per_seed]
        status[label] = [r.status for r in results]
        bad = [s for s, v in zip(seeds, final[label]) if not math.isfinite(v)]
        if bad:
            warnings.append(f"median_final of {label!r} includes non-finite finals (seeds {bad})")
        series[label] = [
            {
                "k": row[0].k,
                "oracle_calls": row[0].oracle_calls,
                "rel_obj_median": statistics.median(r.rel_obj for r in row),
            }
            for row in zip(*per_seed)
        ]
    median_final = {label: statistics.median(final[label]) for label in labels}
    ordering = sorted(labels, key=lambda lb: median_final[lb])
    return {
        "problem": configs[0].problem,
        "noise": configs[0].noise,
        "sigma": configs[0].sigma,
        "budget": budget,
        "seeds": seeds,
        "labels": list(labels),
        "iterations": dict(zip(labels, iterations)),
        "final": final,
        "median_final": median_final,
        "ordering": ordering,
        "series": series,
        "status": status,
        "warnings": warnings,
    }


def grid_search(
    config: RunConfig,
    budget: int,
    etas: Optional[Sequence[float]] = None,
    gammas: Optional[Sequence[float]] = None,
    n_seeds: int = 3,
    base_seed: int = 0,
) -> dict:
    """Sweep constant hyperparameters for a baseline and report the grid.

    Defaults: etas log-spaced 1e-3..1, gammas 0.02..0.8. The sweep covers
    eta alone for sg, (gamma, eta) pairs for sg-pm and nigt. The grid runs
    through compare, one label per point; every method searched makes one
    oracle call per iteration, so the budget counts iterations, and all
    points step as one state. Returns every grid point with its median
    final rel_obj, best first; the input config is never modified and the
    winner is never applied silently.
    """
    if config.algorithm == "mem":
        raise ValueError("mem's schedule is parameter-free; nothing to search")
    if etas is None:
        etas = [float(v) for v in np.geomspace(1e-3, 1.0, 7)]
    if gammas is None:
        gammas = [float(v) for v in np.geomspace(0.02, 0.8, 5)]
    if config.algorithm == "sg":
        combos = [(None, e) for e in etas]
    else:
        combos = [(g, e) for g in gammas for e in etas]
    table = compare(
        [replace(config, gamma=g, eta=e) for g, e in combos],
        budget,
        n_seeds=n_seeds,
        base_seed=base_seed,
    )
    rows = [
        {"gamma": g, "eta": e, "median_final_rel_obj": table["median_final"][label]}
        for (g, e), label in zip(combos, table["labels"])
    ]
    rows.sort(key=lambda r: r["median_final_rel_obj"])
    return {"algorithm": config.algorithm, "grid": rows, "best": rows[0]}


def verify_all(
    seed: int = 0,
    k_max: int = 10**4,
    bound_k_max: int = 10**6,
    n_draws: int = 10**5,
    ps: Sequence[int] = (2, 3, 4, 5, 6),
) -> dict:
    """Drive every check in the verify module and aggregate the reports.

    The report is reproducible for fixed parameters: {"passed": bool,
    "seed", "parameters", "checks": [CheckReport fields...]}.
    """
    data = generate_synthetic(30, seed)
    df = datafit_problem(data)
    rb = robust_problem(data)
    qd = quadratic_problem(20, 100.0)
    flat = quadratic_problem(10, 1.0)
    scalar_noise = NoiseModel(kind="scalar-gaussian-envelope", sigma_tilde=2.0)
    elem_noise = NoiseModel(kind="elementwise-gaussian-envelope", sigma_tilde=2.0)
    rng = np.random.default_rng(seed)
    xq = rng.standard_normal(qd.dim)
    yq = xq + 0.5 * rng.standard_normal(qd.dim)
    xd = rng.standard_normal(df.dim)
    yd = xd + 0.5 * rng.standard_normal(df.dim)
    y_unit = np.zeros(df.dim)
    y_unit[0] = 1.0

    reports = []
    for p in ps:
        reports.append(verify_mod.schedule_cross_check(p, k_max))
        reports.append(verify_mod.sum_identity_check(p, k_max))
        reports.append(verify_mod.bound_sweep(p, bound_k_max))
    reports += [
        verify_mod.p3_consistency_check(k_max),
        verify_mod.gradient_check(df, 20, seed),
        verify_mod.gradient_check(rb, 20, seed + 1),
        verify_mod.gradient_check(qd, 20, seed + 2),
        verify_mod.taylor_remainder_check(qd, xq, yq, 1),
        verify_mod.taylor_remainder_check(qd, xq, yq, 2),
        verify_mod.taylor_remainder_check(qd, xq, yq, 3),
        verify_mod.taylor_remainder_check(df, xd, yd, 2),
        verify_mod.noise_unbiasedness_check(df, scalar_noise, np.ones(df.dim), n_draws, seed + 3),
        verify_mod.noise_unbiasedness_check(qd, elem_noise, np.ones(qd.dim), n_draws, seed + 4),
        verify_mod.noise_moment_check(
            df, scalar_noise, np.zeros(df.dim), y_unit, n_draws, seed + 5
        ),
        verify_mod.smoothness_ratio_check(flat, scalar_noise),
    ]
    return {
        "passed": all(r.passed for r in reports),
        "seed": seed,
        "parameters": {
            "k_max": k_max,
            "bound_k_max": bound_k_max,
            "n_draws": n_draws,
            "ps": list(ps),
        },
        "checks": [asdict(r) for r in reports],
    }


def _cmd_run(argv: Sequence[str]) -> int:
    config = parse_config(argv)
    records, summary = run_experiment(config)
    if summary["status"].startswith("non-finite"):
        print(f"warning: the run's status is {summary['status']!r}", file=sys.stderr)
    _output(_payload(records, config.format, config, summary), config.out, summary)
    return 0


# the argument lists an --algs token may carry after its algorithm name
_TOKEN_ARGS = {
    "mem": [("q",)],
    "nigt": [("gamma", "eta")],
    "sg": [(), ("eta",)],
    "sg-pm": [(), ("eta",), ("gamma", "eta")],
}


def _parse_alg_token(token: str) -> dict:
    name, *args = token.split(":")
    _require(name in _TOKEN_ARGS, f"--algs: unknown algorithm {name!r} in {token!r}")
    keys = next((ks for ks in _TOKEN_ARGS[name] if len(ks) == len(args)), None)
    if keys is None:
        forms = " or ".join(":".join([name, *map(str.upper, ks)]) for ks in _TOKEN_ARGS[name])
        raise ConfigError(f"--algs: malformed token {token!r}; expected {forms}")
    vals = {"algorithm": name}
    for key, arg in zip(keys, args):
        try:
            vals[key] = _KINDS[key](arg)
        except ValueError:
            raise ConfigError(
                f"--algs: {key.upper()} in {token!r} must be {_WANT[_KINDS[key]][1]}, got {arg!r}"
            ) from None
    if name == "mem":
        _require(vals["q"] >= 1, f"--algs: Q in {token!r} must be an integer >= 1")
        vals["p"] = vals["q"] + 1
    return vals


def _cmd_compare(argv: Sequence[str]) -> int:
    p = _Parser(prog="momex compare", add_help=False)
    p.add_argument("--algs", required=True)
    _add_flags(p, _PROBLEM_FIELDS)
    p.add_argument("--budget", type=_int_at_least(1), required=True)
    p.add_argument("--seeds", type=_int_at_least(1), default=10)
    p.add_argument("--base-seed", type=_int_at_least(0), default=0, dest="base_seed")
    p.add_argument("--out", type=_out_path)
    ns = p.parse_args(argv)
    problem_flags = {k: getattr(ns, k) for k in _PROBLEM_FIELDS if getattr(ns, k) is not None}
    tokens = [t.strip() for t in ns.algs.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--algs must name at least one algorithm")
    configs = [
        RunConfig(**_parse_alg_token(tok), **problem_flags, iters=ns.budget) for tok in tokens
    ]
    table = compare(configs, ns.budget, n_seeds=ns.seeds, base_seed=ns.base_seed, labels=tokens)
    for warning in table["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    _output(json.dumps(table, indent=2), ns.out, {"median_final": table["median_final"]})
    return 0


def _cmd_verify(argv: Sequence[str]) -> int:
    # flags left out stay out of the namespace, so verify_all's defaults apply
    p = _Parser(prog="momex verify", add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--k-max", type=_int_at_least(0), dest="k_max")
    p.add_argument("--bound-k-max", type=_int_at_least(0), dest="bound_k_max")
    # noise_moment_check needs 10^4 draws
    p.add_argument("--draws", type=_int_at_least(10_000), dest="n_draws")
    p.add_argument("--out", type=_out_path, default=None)
    ns = vars(p.parse_args(argv))
    out = ns.pop("out")
    report = verify_all(**ns)
    _output(json.dumps(report, indent=2), out, {"passed": report["passed"]})
    return 0 if report["passed"] else 1


def _cmd_gen_data(argv: Sequence[str]) -> int:
    p = _Parser(prog="momex gen-data", add_help=False)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", type=_out_path, required=True)
    ns = p.parse_args(argv)
    _output(dataset_to_csv(generate_synthetic(ns.n, ns.seed)), ns.out, {"n": ns.n, "seed": ns.seed})
    return 0


_USAGE = """usage: momex <run|compare|verify|gen-data> [flags]

  run       one seeded experiment; CSV or JSON records
  compare   several algorithms, one problem, equal oracle-call budget
  verify    the full verification suite as a JSON report
  gen-data  write a synthetic dataset to CSV
"""


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    commands = {"run": _cmd_run, "compare": _cmd_compare, "verify": _cmd_verify, "gen-data": _cmd_gen_data}
    cmd, rest = argv[0], argv[1:]
    if cmd not in commands:
        print(f"error: unknown command {cmd!r}\n{_USAGE}", file=sys.stderr)
        return 2
    try:
        return commands[cmd](rest)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
