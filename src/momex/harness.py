"""Command-line harness: configs, seeded runs, comparisons, reports.

Subcommands: run (one seeded experiment to CSV or JSON), compare (several
algorithms on one problem at an equal oracle-call budget, medians over
seeds), verify (the full check suite as a JSON report, nonzero exit on any
failure), gen-data (write a synthetic dataset to CSV).

Each algorithm is one row of ``_ALGORITHMS``, which the config checks,
build_kind, compare's labels, --algs tokens and grid_search's axes all read.

Everything an invocation emits is a pure function of the config and seed,
byte for byte, except elapsed_seconds.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
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

# a logged row's columns and their types, in CSV order
_RECORD_TYPES = get_type_hints(TrajectoryRecord)
CSV_HEADER = ",".join(_RECORD_TYPES)

# the fields that apply to some algorithms only
_HYPER = ("p", "q", "gamma", "eta")
# One row per algorithm: the fields of _HYPER it takes, in its label's order;
# the argument lists its --algs token may carry; and its kind from a mapping
# of those fields (a config's vars or a token's), whose constructor, looked up
# when called, alone refuses a bad value (a given --gamma/--eta holds for every k).
_Algorithm = collections.namedtuple("_Algorithm", "fields tokens build")
_ALGORITHMS = {
    "mem": _Algorithm(("q", "p"), [("q",)], lambda v: mem(ScheduleConfig(p=v.get("p"), q=v.get("q")))),
    "sg": _Algorithm(("eta",), [(), ("eta",)], lambda v: sg(v.get("eta"))),
    "sg-pm": _Algorithm(("gamma", "eta"), [(), ("eta",), ("gamma", "eta")], lambda v: sg_pm(v.get("gamma"), v.get("eta"))),
    "nigt": _Algorithm(("gamma", "eta"), [("gamma", "eta")], lambda v: nigt(v.get("gamma"), v.get("eta"))),
}

# the allowed values of every field that has a fixed set
_CHOICES = {
    "algorithm": tuple(_ALGORITHMS),
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
        ConfigError: a field of the wrong type, a value its constraint or
            its kind's constructor refuses, or a field that does not apply
            to the algorithm or problem; the message names the flag.
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
            if kind is float:  # an int beyond the float range is not finite
                _require(val is None or abs(val) <= sys.float_info.max,
                         f"{_flag(name)} must be finite, got {val!r}")
        for name in ("seed", "data_seed"):
            val = getattr(self, name)
            _require(val >= 0, f"{_flag(name)} must be >= 0, got {val}")

        alg = self.algorithm
        _require(alg in _ALGORITHMS, f"--alg is required and must be one of {_CHOICES['algorithm']}")
        for name in _HYPER:
            if name not in _ALGORITHMS[alg].fields:
                _require(getattr(self, name) is None, f"{_flag(name)} does not apply to {alg}")
        if alg == "mem" and self.q is None and self.p is not None:
            set_("q", self.p - 1)
        try:  # the kind's constructor refuses a bad value, its text led by the field's name
            _ALGORITHMS[alg].build(vars(self))
        except ValueError as exc:
            raise ConfigError(f"--{exc}") from None

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
        # build_problem reads each only beside its source; a default value is not given
        _require(dataset is not None or self.target == "target", "--target applies to --dataset only")
        _require(synthetic is not None or self.data_seed == 0, "--data-seed applies to --synthetic only")

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
        for name in ("gamma", "eta"):
            set_(name, None if getattr(self, name) is None else float(getattr(self, name)))


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
    p = _Parser(prog="momex run")
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
    return _ALGORITHMS[config.algorithm].build(vars(config))


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
    records, last = result.records, result.records[-1]
    summary = {
        "algorithm": config.algorithm,
        "problem": config.problem,
        "iterations": result.state.k,
        "final_f": last.f_val,
        "final_rel_obj": last.rel_obj,
        "min_grad_norm": min(records.columns["grad_norm"].tolist()),
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


def _cells(records: Sequence[TrajectoryRecord]):
    """Per column, its cells' text, 4096 rows a chunk (a plain sequence is made columns first)."""
    cols = getattr(records, "columns", None) or {
        f: [getattr(r, f) for r in records] for f in _RECORD_TYPES}
    cols = [np.asarray(c, _RECORD_TYPES[f]) for f, c in cols.items()]
    for i in range(0, len(records), 4096):
        yield [repr(c[i : i + 4096].tolist())[1:-1].split(", ") for c in cols]


def _csv_chunks(records: Sequence[TrajectoryRecord]):
    """The header line, then the rows as CSV text, a chunk of _cells each."""
    yield CSV_HEADER + "\n"
    for cells in _cells(records):
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _json_chunks(doc: dict, records: Sequence[TrajectoryRecord]):
    """json.dumps({**doc, "records": [each row as a dict]}, indent=2), a chunk of _cells a time."""
    row = "    {\n" + ",\n".join(f'      "{f}": %s' for f in _RECORD_TYPES) + "\n    }"
    yield json.dumps({**doc, "records": []}, indent=2)[: -len("]\n}")]  # to the "["
    for i, cells in enumerate(_cells(records)):
        rows = ",\n".join(row % r for r in zip(*cells))
        # cells are float and int reprs, and no field name holds "nan" or "inf"
        yield ("\n" if i == 0 else ",\n") + rows.replace("nan", "NaN").replace("inf", "Infinity")
    yield "\n  ]\n}" if len(records) else "]\n}"


def records_to_csv(records: Sequence[TrajectoryRecord]) -> str:
    return "".join(_csv_chunks(records))


def parse_records(text: str) -> Tuple[TrajectoryRecord, ...]:
    """Inverse of records_to_csv; round-trips every float exactly."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_RECORD_TYPES):
            raise ValueError(f"expected {len(_RECORD_TYPES)} cells, got {len(cells)}: {ln!r}")
        out.append(TrajectoryRecord(*[t(c) for t, c in zip(_RECORD_TYPES.values(), cells)]))
    return tuple(out)


def _open(path: Optional[str]):
    """path opened for writing, or stdout (left open) when path is None."""
    try:
        return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _output(chunks, path: Optional[str] = None, receipt: Optional[dict] = None, out=None) -> None:
    """Write chunks (at least one string) to out, what _open(path) gave, or
    to _open(path) now: to a file as they are, to stdout newline-terminated;
    after a file, print the receipt, if any, as one JSON line with the path."""
    with out or _open(path) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.write("" if path is not None or chunk.endswith("\n") else "\n")
    if path is not None and receipt is not None:
        print(json.dumps({"out": path, **receipt}))


def _payload(records, format: str, config: Optional[RunConfig], summary: Optional[dict]):
    """The chunks of records as format, 4096 rows a chunk."""
    if format not in _CHOICES["format"]:
        raise ValueError(f"format must be csv or json, got {format!r}")
    if format == "csv":
        return _csv_chunks(records)
    config = None if config is None else asdict(config)
    return _json_chunks({"config": config, "summary": summary}, records)


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
    taken = [(f, getattr(config, f)) for f in _ALGORITHMS[config.algorithm].fields]
    # an int as str: f"{10**7:g}" would read 1e+07
    parts = [f"{f}={v:g}" if isinstance(v, float) else f"{f}={v}" for f, v in taken if v is not None]
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
        # no _label holds "#", so the n-th config of a label is label#n from n = 2
        labels, seen = [], collections.Counter()
        for base in map(_label, configs):
            seen[base] += 1
            labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
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
    for label, kind, iters in zip(labels, kinds, iterations):
        if iters < 1:
            raise ValueError(f"budget {budget} is below one iteration ({kind.q} calls) for {label}")

    problem, noise, x0 = build_problem(configs[0])
    strides = [max(1, iters // 200) for iters in iterations]
    batches = run_batch(kinds, problem, noise, x0, iterations, seeds, strides)
    final, status, series, warnings = {}, {}, {}, []
    for label, results in zip(labels, batches):
        cols = [r.records.columns for r in results]  # a kind's seeds log the same k
        final[label] = [c["rel_obj"][-1].item() for c in cols]
        status[label] = [r.status for r in results]
        bad = [s for s, v in zip(seeds, final[label]) if not math.isfinite(v)]
        if bad:
            warnings.append(f"median_final of {label!r} includes non-finite finals (seeds {bad})")
        series[label] = [
            {"k": k, "oracle_calls": calls, "rel_obj_median": statistics.median(row)}
            for k, calls, *row in zip(cols[0]["k"].tolist(), cols[0]["oracle_calls"].tolist(),
                                      *(c["rel_obj"].tolist() for c in cols))
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
    eta, paired with gamma where the algorithm takes gamma. The grid runs
    through compare, one label per point; every method searched makes one
    oracle call per iteration, so the budget counts iterations, and all
    points step as one state. Returns every grid point with its median
    final rel_obj, best first; the input config is never modified and the
    winner is never applied silently.
    """
    takes = _ALGORITHMS[config.algorithm].fields
    if "eta" not in takes:
        raise ValueError(f"{config.algorithm}'s schedule is parameter-free; nothing to search")
    if etas is None:
        etas = [float(v) for v in np.geomspace(1e-3, 1.0, 7)]
    if gammas is None:
        gammas = [float(v) for v in np.geomspace(0.02, 0.8, 5)]
    combos = [(g, e) for g in (gammas if "gamma" in takes else [None]) for e in etas]
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
    out = _open(config.out)  # a path that cannot be written fails before the run
    with out:
        records, summary = run_experiment(config)
        if summary["status"].startswith("non-finite"):
            print(f"warning: the run's status is {summary['status']!r}", file=sys.stderr)
        _output(_payload(records, config.format, config, summary), config.out, summary, out)
    return 0


def _parse_alg_token(token: str) -> dict:
    name, *args = token.split(":")
    _require(name in _ALGORITHMS, f"--algs: unknown algorithm {name!r} in {token!r}")
    forms = _ALGORITHMS[name].tokens
    keys = next((ks for ks in forms if len(ks) == len(args)), None)
    if keys is None:
        forms = " or ".join(":".join([name, *map(str.upper, ks)]) for ks in forms)
        raise ConfigError(f"--algs: malformed token {token!r}; expected {forms}")
    vals = {"algorithm": name}
    for key, arg in zip(keys, args):
        try:
            vals[key] = _KINDS[key](arg)
        except ValueError:
            raise ConfigError(
                f"--algs: {key.upper()} in {token!r} must be {_WANT[_KINDS[key]][1]}, got {arg!r}"
            ) from None
    if "q" in vals:  # Q sets the order: p = Q + 1
        _require(vals["q"] >= 1, f"--algs: Q in {token!r} must be an integer >= 1")
        vals["p"] = vals["q"] + 1
    try:  # the kind's constructor refuses a bad value, in the token's name
        _ALGORITHMS[name].build(vals)
    except ValueError as exc:
        raise ConfigError(f"--algs: {token!r}: {exc}") from None
    return vals


def _cmd_compare(argv: Sequence[str]) -> int:
    p = _Parser(prog="momex compare")
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
    _output([json.dumps(table, indent=2)], ns.out, {"median_final": table["median_final"]})
    return 0


def _cmd_verify(argv: Sequence[str]) -> int:
    # flags left out stay out of the namespace, so verify_all's defaults apply
    p = _Parser(prog="momex verify", argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--k-max", type=_int_at_least(0), dest="k_max")
    p.add_argument("--bound-k-max", type=_int_at_least(0), dest="bound_k_max")
    # noise_moment_check needs 10^4 draws
    p.add_argument("--draws", type=_int_at_least(10_000), dest="n_draws")
    p.add_argument("--out", type=_out_path, default=None)
    ns = vars(p.parse_args(argv))
    out = ns.pop("out")
    report = verify_all(**ns)
    _output([json.dumps(report, indent=2)], out, {"passed": report["passed"]})
    return 0 if report["passed"] else 1


def _cmd_gen_data(argv: Sequence[str]) -> int:
    p = _Parser(prog="momex gen-data")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", type=_out_path, required=True)
    ns = p.parse_args(argv)
    _output([dataset_to_csv(generate_synthetic(ns.n, ns.seed))], ns.out, {"n": ns.n, "seed": ns.seed})
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
