import json
import math
import re
import statistics
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momex.harness as har
import momex.optimizer as opt
import momex.problems as prob
import momex.schedule as sched
from momex.optimizer import TrajectoryRecord
from momex.schedule import params_general


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_run():
    cfg = har.parse_config(
        ["--alg", "sg", "--problem", "datafit", "--synthetic", "10", "--iters", "5"]
    )
    assert cfg.algorithm == "sg"
    assert cfg.iters == 5
    assert cfg.seed == 0
    assert cfg.noise == "none"
    assert cfg.x0 == "ones"
    assert cfg.format == "csv"


def test_parse_tolerates_leading_subcommand():
    cfg = har.parse_config(
        ["run", "--alg", "sg", "--problem", "datafit", "--synthetic", "4", "--iters", "1"]
    )
    assert cfg.algorithm == "sg"


def test_sigma_implies_scalar_noise():
    cfg = har.parse_config(
        ["--alg", "sg", "--problem", "datafit", "--synthetic", "4",
         "--iters", "1", "--sigma", "2.5"]
    )
    assert cfg.noise == "scalar-gaussian-envelope"
    assert cfg.sigma == 2.5


def test_config_file_merge(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(
        {"alg": "sg", "problem": "datafit", "synthetic": 6, "iters": 2}
    ))
    cfg = har.parse_config([], config_file=str(f))
    assert cfg.iters == 2
    cfg = har.parse_config(["--iters", "9"], config_file=str(f))
    assert cfg.iters == 9  # explicit flags win over the file

    f.write_text(json.dumps({"alg": "sg", "problem": "datafit",
                             "synthetic": 6, "iters": 2, "wat": 1}))
    with pytest.raises(har.ConfigError, match="wat"):
        har.parse_config([], config_file=str(f))
    missing = tmp_path / "missing.json"
    with pytest.raises(har.ConfigError, match=f"^--config: cannot read {re.escape(str(missing))}: "):
        har.parse_config(["--config", str(missing)])
    f.write_text("{not json")
    with pytest.raises(har.ConfigError, match=f"^--config: {re.escape(str(f))} is not valid JSON: "):
        har.parse_config(["--config", str(f)])
    f.write_text("[1, 2]")
    with pytest.raises(har.ConfigError,
                       match=f"^--config: {re.escape(str(f))} must hold a JSON object$"):
        har.parse_config(["--config", str(f)])


def test_validation_messages_name_the_flags():
    with pytest.raises(har.ConfigError, match="--p"):
        har.parse_config(["--alg", "mem", "--problem", "datafit",
                          "--synthetic", "6", "--iters", "1"])
    with pytest.raises(har.ConfigError, match="q"):
        har.parse_config(["--alg", "mem", "--p", "3", "--q", "1",
                          "--problem", "datafit", "--synthetic", "6", "--iters", "1"])
    with pytest.raises(har.ConfigError, match="gamma"):
        har.parse_config(["--alg", "mem", "--p", "3", "--gamma", "0.5",
                          "--problem", "datafit", "--synthetic", "6", "--iters", "1"])
    with pytest.raises(har.ConfigError, match="gamma"):
        har.parse_config(["--alg", "nigt", "--gamma", "1.5", "--eta", "0.1",
                          "--problem", "datafit", "--synthetic", "6", "--iters", "1"])
    with pytest.raises(har.ConfigError):
        har.parse_config(["--alg", "sg", "--problem", "datafit", "--iters", "1"])
    with pytest.raises(har.ConfigError):
        har.parse_config(["--alg", "sg", "--problem", "datafit", "--synthetic", "6",
                          "--dataset", "x.csv", "--iters", "1"])
    with pytest.raises(har.ConfigError, match="--dim"):
        har.parse_config(["--alg", "sg", "--problem", "quadratic", "--iters", "1"])
    with pytest.raises(har.ConfigError, match="--out must name a file"):
        har.RunConfig(algorithm="sg", problem="quadratic", dim=2, iters=1, out="")


@pytest.mark.parametrize(
    "field, value, flag",
    [
        ("p", 3.7, "--p"),
        ("iters", "5", "--iters"),
        ("seed", -1, "--seed"),
        ("data_seed", -1, "--data-seed"),
        ("sigma", "1", "--sigma"),
        ("x0", [1, 2, 3], "--x0"),
        ("synthetic", True, "--synthetic"),
    ],
)
def test_config_file_field_types(tmp_path, capsys, field, value, flag):
    base = {"alg": "mem", "p": 3, "problem": "datafit", "synthetic": 6,
            "sigma": 1.0, "iters": 5}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({**base, field: value}))
    with pytest.raises(har.ConfigError, match=flag):
        har.parse_config([], config_file=str(f))
    assert har.main(["run", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--seed", "--data-seed"])
def test_cli_rejects_negative_seeds(capsys, flag):
    rc = har.main(["run", "--alg", "sg", "--problem", "datafit", "--synthetic", "6",
                   "--sigma", "1", "--iters", "3", flag, "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be >= 0")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eta", "inf"),
        ("--gamma", "nan"),
        ("--sigma", "nan"),
        ("--conditioning", "inf"),
        ("--wall-seconds", "inf"),
        ("--x0", "nan,1,1"),
    ],
)
def test_cli_rejects_non_finite_numbers(capsys, flag, value):
    rc = har.main(["run", "--alg", "sg", "--problem", "quadratic", "--dim", "3",
                   "--iters", "3", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "finite" in err


@pytest.mark.parametrize(
    "kwargs, flag",
    [
        (dict(algorithm="adam"), "--alg"),
        (dict(algorithm="mem"), "--p"),
        (dict(algorithm="sg", noise="none", sigma=1.0), "--sigma"),
        (dict(algorithm="sg", noise="gaussian", sigma=1.0), "--noise"),
        (dict(algorithm="sg", seed=None), "--seed"),
        (dict(algorithm="sg", eta=float("inf")), "--eta"),
        (dict(algorithm="sg", eta=10**400), "--eta"),
        (dict(algorithm="sg", x0="1,a"), '^--x0 must be "ones", "zeros", or a comma-separated vector$'),
    ],
)
def test_direct_construction_is_validated(kwargs, flag):
    with pytest.raises(har.ConfigError, match=flag):
        har.RunConfig(problem="quadratic", dim=3, iters=5, **kwargs)


@pytest.mark.parametrize(
    "kwargs, normalized",
    [
        (dict(algorithm="mem", p=4, problem="quadratic", dim=3),
         dict(q=3, conditioning=1.0, noise="none", sigma=0.0)),
        (dict(algorithm="sg", problem="datafit", synthetic=5, sigma=2),
         dict(noise="scalar-gaussian-envelope", sigma=2.0)),
        (dict(algorithm="nigt", gamma=0.5, eta=1, problem="robust", synthetic=5,
              noise="elementwise-gaussian-envelope", sigma=1.0),
         dict(eta=1.0, conditioning=None)),
        (dict(algorithm="sg-pm", problem="quadratic", dim=2, noise="none", sigma=0.0),
         dict(sigma=0.0, conditioning=1.0)),
    ],
)
def test_normalized_config_survives_replace(kwargs, normalized):
    cfg = har.RunConfig(iters=3, **kwargs)
    for key, val in normalized.items():
        got = getattr(cfg, key)
        assert got == val and type(got) is type(val), key
    assert replace(cfg) == cfg


_POSITIVE = st.floats(1e-6, 10.0)
_ALG_FIELDS = {
    "mem": st.fixed_dictionaries({"p": st.integers(2, 6)}),
    "sg": st.fixed_dictionaries({}, optional={"eta": _POSITIVE}),
    "sg-pm": st.fixed_dictionaries({}, optional={"gamma": st.floats(1e-6, 1.0), "eta": _POSITIVE}),
    "nigt": st.fixed_dictionaries({"gamma": st.floats(1e-6, 0.999), "eta": _POSITIVE}),
}


def _config_kwargs():
    alg = st.sampled_from(list(_ALG_FIELDS)).flatmap(
        lambda a: _ALG_FIELDS[a].map(lambda d: {"algorithm": a, **d})
    )
    problem = st.one_of(
        st.fixed_dictionaries({"problem": st.just("quadratic"), "dim": st.integers(1, 50)},
                              optional={"conditioning": st.floats(1.0, 1e6)}),
        st.fixed_dictionaries({"problem": st.sampled_from(["datafit", "robust"])}).flatmap(
            lambda d: st.one_of(
                st.fixed_dictionaries({"synthetic": st.integers(1, 500)},
                                      optional={"data_seed": st.integers(0, 2**32)}),
                st.fixed_dictionaries({"dataset": st.text(min_size=1), "target": st.text()}),
            ).map(lambda src: {**d, **src})
        ),
    )
    noise = st.one_of(
        st.just({}),
        st.just({"noise": "none"}),
        st.fixed_dictionaries({"sigma": st.floats(1e-6, 1e3)}, optional={
            "noise": st.sampled_from(["scalar-gaussian-envelope", "elementwise-gaussian-envelope"])
        }),
    )
    rest = st.fixed_dictionaries({"iters": st.integers(0, 10**6)}, optional={
        "seed": st.integers(0, 2**63),
        "wall_seconds": st.floats(1e-3, 1e5),
        "x0": st.sampled_from(["ones", "zeros", "1.5,-2", "0.1"]),
        "log_stride": st.integers(1, 1000),
        "out": st.text(min_size=1),
        "format": st.sampled_from(["csv", "json"]),
    })
    return st.tuples(alg, problem, noise, rest).map(
        lambda parts: {k: v for part in parts for k, v in part.items()}
    )


@settings(max_examples=60, deadline=None)
@given(_config_kwargs())
def test_config_echo_round_trips_through_parse_config(tmp_path_factory, kwargs):
    cfg = har.RunConfig(**kwargs)
    assert replace(cfg) == cfg
    f = tmp_path_factory.mktemp("echo") / "cfg.json"
    f.write_text(json.dumps(asdict(cfg)))
    assert har.parse_config([], config_file=str(f)) == cfg


def test_config_file_takes_alg_or_algorithm(tmp_path):
    f = tmp_path / "cfg.json"
    base = {"problem": "datafit", "synthetic": 6, "iters": 2}
    f.write_text(json.dumps({**base, "algorithm": "sg"}))
    assert har.parse_config([], config_file=str(f)).algorithm == "sg"
    f.write_text(json.dumps({**base, "algorithm": "sg", "alg": "sg"}))
    with pytest.raises(har.ConfigError, match="'alg' and 'algorithm'"):
        har.parse_config([], config_file=str(f))


def test_x0_parsing():
    base = ["--alg", "sg", "--problem", "quadratic", "--dim", "3", "--iters", "1"]
    _, _, x0 = har.build_problem(har.parse_config(base))
    np.testing.assert_array_equal(x0, np.ones(3))
    _, _, x0 = har.build_problem(har.parse_config(base + ["--x0", "zeros"]))
    np.testing.assert_array_equal(x0, np.zeros(3))
    _, _, x0 = har.build_problem(har.parse_config(base + ["--x0", "1.5,2.5,-1"]))
    np.testing.assert_array_equal(x0, np.array([1.5, 2.5, -1.0]))
    with pytest.raises(har.ConfigError):
        har.build_problem(har.parse_config(base + ["--x0", "1.5,2.5"]))


# the flag table as it stands: a field's kind and allowed values
_INT_FIELDS = {"p", "q", "iters", "seed", "data_seed", "synthetic", "dim", "log_stride"}
_REAL_FIELDS = {"gamma", "eta", "sigma", "conditioning", "wall_seconds"}
_CHOICES = {
    "algorithm": ("mem", "sg", "sg-pm", "nigt"),
    "problem": ("datafit", "robust", "quadratic"),
    "noise": prob.NOISE_KINDS,
    "format": ("csv", "json"),
}


def _parser_of(monkeypatch, argv):
    """The parser a subcommand builds, caught as it parses argv, without
    argparse's own -h/--help."""
    seen = []

    def catch(self, args):
        seen.append(self)
        raise har.ConfigError("caught")

    monkeypatch.setattr(har._Parser, "parse_args", catch)
    assert har.main(argv) == 2
    return {a.dest: a for a in seen[0]._actions if a.dest != "help"}


def test_flags_are_the_config_fields(monkeypatch):
    names = [f.name for f in fields(har.RunConfig)]
    run = _parser_of(monkeypatch, ["run"])
    assert sorted(run) == sorted([*names, "config"])
    for name in names:
        flag = run[name]
        dashed = "--alg" if name == "algorithm" else "--" + name.replace("_", "-")
        kind = int if name in _INT_FIELDS else float if name in _REAL_FIELDS else None
        assert (flag.option_strings, flag.type) == ([dashed], kind)
        assert flag.choices == _CHOICES.get(name)

    shared = _parser_of(monkeypatch, ["compare"])
    own = ["algs", "budget", "seeds", "base_seed", "out"]
    assert sorted(shared) == sorted([*har._PROBLEM_FIELDS, *own])
    for name in har._PROBLEM_FIELDS:
        flag = shared[name]
        assert (flag.option_strings, flag.type, flag.choices) == (
            run[name].option_strings, run[name].type, run[name].choices)


class _Reads:
    """A config that records the names of the fields read from it."""

    def __init__(self, config):
        self._config, self.names = config, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._config, name)


def test_build_problem_reads_only_the_shared_fields(tmp_path):
    # compare builds one problem for all its configs, so build_problem may
    # depend only on the fields _fingerprint makes them share
    data = tmp_path / "d.csv"
    prob.save_dataset(prob.generate_synthetic(5, 1), data)
    read = set()
    for kwargs in (
        dict(problem="quadratic", dim=3, conditioning=10.0, x0="1,2,3"),
        dict(problem="datafit", synthetic=4, data_seed=2, sigma=1.0, x0="zeros"),
        dict(problem="robust", dataset=str(data), noise="elementwise-gaussian-envelope", sigma=0.5),
    ):
        config = _Reads(har.RunConfig(algorithm="sg", iters=1, **kwargs))
        har.build_problem(config)
        read |= config.names
    assert read == set(har._PROBLEM_FIELDS)


def test_mem_p3_uses_general_schedule():
    cfg = har.parse_config(["--alg", "mem", "--p", "3",
                            "--problem", "datafit", "--synthetic", "6", "--iters", "1"])
    kind = har.build_kind(cfg)
    assert kind.q == 2
    for k in (0, 1, 1234):
        a, b = kind.bundles(k, k + 1), params_general(k, 3)
        assert a.k0 == b.k0
        for field in ("eta", "gammas", "thetas"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact():
    records = [
        TrajectoryRecord(0, 1.0 / 3.0, 1.0, 2.2250738585072014e-308, 7.1, 2, 0.0),
        TrajectoryRecord(1, math.pi, 0.5, 1e6, -0.0, 4, 0.125),
    ]
    text = har.records_to_csv(records)
    assert text.splitlines()[0] == har.CSV_HEADER
    back = har.parse_records(text)
    assert list(back) == records


def test_csv_header_is_the_record_fields():
    assert har.CSV_HEADER == ",".join(f.name for f in fields(TrajectoryRecord))
    assert har.CSV_HEADER == "k,f_val,rel_obj,grad_norm,mom_err,oracle_calls,elapsed_seconds"


@pytest.mark.parametrize("n_cells", [6, 8])
def test_parse_records_refuses_a_row_of_the_wrong_width(n_cells):
    row = ",".join(["1"] * n_cells)
    with pytest.raises(ValueError, match=f"^expected 7 cells, got {n_cells}: "):
        har.parse_records(f"{har.CSV_HEADER}\n0,1.0,1.0,1.0,1.0,2,0.0\n{row}\n")


def test_parse_records_refuses_another_header():
    for text in ("", "k,f_val\n0,1.0\n"):
        with pytest.raises(ValueError, match=f"^expected header {re.escape(repr(har.CSV_HEADER))}$"):
            har.parse_records(text)


def _csv_reference(records):
    """The CSV of records, formatted row by row."""
    return "".join([har.CSV_HEADER + "\n"] + [
        f"{r.k},{float(r.f_val)!r},{float(r.rel_obj)!r},{float(r.grad_norm)!r},"
        f"{float(r.mom_err)!r},{r.oracle_calls},{float(r.elapsed_seconds)!r}\n"
        for r in records])


_ODD = [-0.0, 5e-324, math.nan, math.inf, -math.inf, 1.0 / 3.0, 1e300, 2]


def _odd_records(n):
    v = lambda i: _ODD[i % len(_ODD)]
    return [TrajectoryRecord(i, v(i), v(i + 1), v(i + 2), v(i + 3), 2 * i, v(i + 4))
            for i in range(n)]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 2 * 4096 + 5])
def test_records_to_csv_matches_a_row_by_row_formatter(n):
    # 4096 rows make one chunk: n covers no row, one partial chunk, exactly
    # one chunk and more than one
    records = _odd_records(n)
    text = har.records_to_csv(records)
    assert text == _csv_reference(records)
    assert "\n\n" not in text and text.count("\n") == n + 1
    chunks = list(har._csv_chunks(records))  # the header, then whole rows only
    assert len(chunks) == 1 + math.ceil(n / 4096)
    assert all(c.endswith("\n") and c[0] != "\n" for c in chunks)
    # a run's row view gives the same text as its rows as a plain list
    problem = prob.quadratic_problem(3, conditioning=2.0)
    res = opt.run(opt.sg(), problem, prob.NoiseModel(), np.ones(3), budget=min(n, 4100), seed=0)
    assert har.records_to_csv(res.records) == _csv_reference(list(res.records))


def test_emit_csv_and_json(tmp_path):
    records = [TrajectoryRecord(0, 2.0, 1.0, 0.5, 0.5, 1, 0.0)]
    cfg = har.RunConfig(algorithm="sg", problem="datafit", synthetic=4, iters=1)

    cpath = tmp_path / "out.csv"
    har.emit(records, str(cpath), format="csv")
    assert cpath.read_text().startswith("k,f_val,")

    jpath = tmp_path / "out.json"
    har.emit(records, str(jpath), format="json", config=cfg, summary={"a": 1})
    doc = json.loads(jpath.read_text())
    assert set(doc) == {"config", "summary", "records"}
    assert doc["records"][0]["f_val"] == 2.0

    with pytest.raises(OSError, match="no/such"):
        har.emit(records, str(tmp_path / "no" / "such" / "dir.csv"))
    with pytest.raises(ValueError, match="^format must be csv or json, got 'xml'$"):
        har.emit(records, str(tmp_path / "out.xml"), format="xml")
    assert not (tmp_path / "out.xml").exists()


def test_json_is_written_a_chunk_at_a_time_as_json_dumps_writes_it():
    # sg at eta 1 on eigenvalues 1 and 2.08 grows by 1.08 a step: f_val is inf
    # from step 4602 and every metric NaN from about 9200, in three chunks
    cfg = har.RunConfig(algorithm="sg", eta=1.0, problem="quadratic", dim=2, conditioning=2.08,
                        iters=10_000, format="json")
    records, summary = har.run_experiment(cfg)
    # the columns are float64: a float field's 2 prints as 2.0, as in CSV
    floats = lambda r: replace(r, **{f: float(getattr(r, f)) for f in ("f_val", "rel_obj",
                                    "grad_norm", "mom_err", "elapsed_seconds")})
    cases = [(records, cfg, summary)] + [
        ([floats(r) for r in _odd_records(n)], None, None) for n in (0, 1, 4097)]
    for rows, config, summ in cases:
        chunks = list(har._payload(rows, "json", config, summ))
        assert len(chunks) == 2 + math.ceil(len(rows) / 4096)
        config = None if config is None else asdict(config)
        assert "".join(chunks) == json.dumps(
            {"config": config, "summary": summ, "records": [asdict(r) for r in rows]}, indent=2)
    assert summary["status"] == "non-finite at 4602"
    assert np.isinf(records.columns["f_val"]).any() and np.isnan(records.columns["f_val"]).any()


def test_run_experiment_deterministic_and_summarized():
    cfg = har.RunConfig(
        algorithm="mem", p=3, q=2, problem="datafit", synthetic=8,
        sigma=2.0, noise="scalar-gaussian-envelope", iters=25, seed=5,
    )
    rec_a, sum_a = har.run_experiment(cfg)
    rec_b, sum_b = har.run_experiment(cfg)
    mask = lambda recs: [
        (r.k, r.f_val, r.rel_obj, r.grad_norm, r.mom_err, r.oracle_calls)
        for r in recs
    ]
    assert mask(rec_a) == mask(rec_b)
    assert sum_a["oracle_calls"] == 50
    assert sum_a["final_rel_obj"] == rec_a[-1].rel_obj
    assert sum_a["min_grad_norm"] <= rec_a[0].grad_norm


def test_min_grad_norm_of_a_diverging_run_reads_its_rows():
    cfg = har.RunConfig(algorithm="sg", eta=1.0, problem="quadratic", dim=5,
                        conditioning=1000.0, iters=150)
    records, summary = har.run_experiment(cfg)
    assert summary["status"] == "non-finite at 51" and math.isnan(records[-1].grad_norm)
    assert repr(summary["min_grad_norm"]) == repr(min(r.grad_norm for r in records))


def test_run_experiment_holds_its_rows_as_columns():
    # a held result costs about 56 B a logged row (seven 8-byte columns);
    # a short run first, so one-time imports and caches are not counted
    base = dict(algorithm="mem", p=3, q=2, problem="quadratic", dim=10, conditioning=10.0,
                noise="none", log_stride=1)
    har.run_experiment(har.RunConfig(iters=10, **base))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records, summary = har.run_experiment(har.RunConfig(iters=20_000, **base))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 20_001
    assert held / len(records) <= 80


def test_run_experiment_reports_certified_constants():
    cfg = har.RunConfig(algorithm="mem", p=3, q=2, problem="quadratic",
                        dim=5, conditioning=4.0, iters=10)
    _, summary = har.run_experiment(cfg)
    assert summary["m_const"] > 0
    assert summary["k_threshold"] >= 6.0  # the 2p floor for p=3
    assert summary["epsilon"] == 0.1


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_run_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = har.main(["run", "--alg", "sg", "--problem", "datafit",
                   "--synthetic", "6", "--iters", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(har.CSV_HEADER)
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] == 3


@pytest.mark.parametrize("to_file", [False, True])
def test_cli_diverging_run_warns_once(tmp_path, capsys, to_file):
    out = tmp_path / "d.csv"
    argv = ["run", "--alg", "sg", "--eta", "1.0", "--problem", "quadratic", "--dim", "5",
            "--conditioning", "1000", "--iters", "150"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert har.main([*argv, "--out", str(out)] if to_file else argv) == 0
    printed = capsys.readouterr()
    assert printed.err == "warning: the run's status is 'non-finite at 51'\n"
    records = har.parse_records(out.read_text() if to_file else printed.out)
    assert len(records) == 151 and math.isnan(records[-1].f_val)
    if to_file:
        assert json.loads(printed.out)["status"] == "non-finite at 51"


def test_cli_run_refuses_an_unwritable_out_before_the_run(tmp_path, monkeypatch, capsys):
    def run_batch(*args, **kwargs):
        raise AssertionError("run_batch was called")

    monkeypatch.setattr(opt, "run_batch", run_batch)
    argv = ["run", "--alg", "sg", "--problem", "quadratic", "--dim", "2", "--iters", "3"]
    bad = tmp_path / "no" / "such" / "run.csv"
    assert har.main([*argv, "--out", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ") and not bad.exists()

    # a run that fails leaves an existing --out byte for byte and makes no new one
    def failing(*args, **kwargs):
        raise ValueError("the run failed")

    monkeypatch.setattr(opt, "run_batch", failing)
    out = tmp_path / "old.csv"
    out.write_text("old content\n")
    assert har.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the run failed\n"
    assert out.read_text() == "old content\n"
    fresh = tmp_path / "new.csv"
    assert har.main([*argv, "--out", str(fresh)]) == 2
    assert capsys.readouterr().err == "error: the run failed\n"
    assert not fresh.exists()


def test_cli_run_that_fails_in_its_set_up_keeps_its_out(tmp_path, capsys):
    """A refusal raised while the run is set up (a bad --x0, an unreadable
    --dataset) leaves --out as it was."""
    out, fresh = tmp_path / "out.csv", tmp_path / "new.csv"
    out.write_bytes(b"k,f_val\r\n0,1.0\r\n")
    base = ["run", "--alg", "mem", "--p", "3", "--iters", "5"]
    missing = tmp_path / "nope.csv"
    for flags, message in (
        (["--problem", "quadratic", "--dim", "3", "--x0", "1,2"],
         "error: --x0 has 2 coordinates, problem has dimension 3\n"),
        (["--problem", "datafit", "--dataset", str(missing)],
         f"error: --dataset: cannot read {missing}: [Errno 2] No such file or directory: "
         f"'{missing}'\n"),
    ):
        for path in (out, fresh):
            assert har.main([*base, *flags, "--out", str(path)]) == 2
            assert capsys.readouterr().err == message
        assert out.read_bytes() == b"k,f_val\r\n0,1.0\r\n" and not fresh.exists()


_OUT_COMMANDS = [
    ["run", "--alg", "sg", "--problem", "quadratic", "--dim", "2", "--iters", "3"],
    ["compare", "--algs", "sg", "--problem", "quadratic", "--dim", "2", "--budget", "3",
     "--seeds", "1"],
    ["verify", "--k-max", "3", "--bound-k-max", "0", "--draws", "10000"],
    ["gen-data", "--n", "3"],
]


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=lambda argv: argv[0])
def test_cli_unwritable_out_names_the_path(tmp_path, capsys, argv):
    path = tmp_path / "no" / "such.json"
    assert har.main([*argv, "--out", str(path)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=lambda argv: argv[0])
def test_cli_empty_out_is_rejected(capsys, argv):
    assert har.main([*argv, "--out", ""]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ") and "--out" in printed.err
    assert "empty path" in printed.err


def test_cli_rejects_bad_input(capsys):
    rc = har.main(["run", "--alg", "mem", "--problem", "datafit",
                   "--synthetic", "6", "--iters", "3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    rc = har.main(["compare", "--algs", " , ", "--problem", "datafit", "--synthetic", "6",
                   "--budget", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --algs must name at least one algorithm\n"


@pytest.mark.parametrize("argv, message", [
    (["--problem", "quadratic", "--dim", "3", "--data-seed", "9", "--target", "zzz"],
     "--target applies to --dataset only"),
    (["--problem", "datafit", "--synthetic", "4", "--target", "zzz"],
     "--target applies to --dataset only"),
    (["--problem", "quadratic", "--dim", "3", "--data-seed", "9"],
     "--data-seed applies to --synthetic only"),
    (["--problem", "robust", "--dataset", "d.csv", "--data-seed", "1"],
     "--data-seed applies to --synthetic only"),
])
def test_a_data_flag_without_its_source_is_refused(capsys, argv, message):
    """build_problem reads --target only with --dataset and --data-seed only
    with --synthetic, so either flag given without its source is refused,
    on run's flags and on compare's."""
    assert har.main(["run", "--alg", "sg", "--iters", "2", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert har.main(["compare", "--algs", "sg", "--budget", "2", "--seeds", "1", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    base = dict(algorithm="sg", iters=2)
    assert har.RunConfig(problem="datafit", dataset="d.csv", target="y", **base).target == "y"
    assert har.RunConfig(problem="datafit", synthetic=4, data_seed=9, **base).data_seed == 9


@pytest.mark.parametrize("command, flags", [
    ("run", ["--alg", "--problem", "--data-seed", "--config"]),
    ("compare", ["--algs", "--budget", "--seeds", "--base-seed", "--target"]),
    ("verify", ["--seed", "--k-max", "--bound-k-max", "--draws", "--out"]),
    ("gen-data", ["--n", "--seed", "--out"]),
])
def test_each_command_answers_help(capsys, command, flags):
    for help_flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as done:
            har.main([command, help_flag])
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: momex {command} ")
        assert all(f"\n  {flag} " in out for flag in flags), out


def test_cli_reports_a_non_finite_dataset_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,target\n1,2,3\n4,inf,6\nnan,1,2\n")
    rc = har.main(["run", "--alg", "mem", "--p", "3", "--problem", "datafit",
                   "--dataset", str(path), "--iters", "3"])
    assert rc == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {path}: non-finite value 'inf' at row 3, column 'b'\n"


def test_an_unreadable_dataset_names_its_flag(tmp_path, capsys):
    path = tmp_path / "nope.csv"
    with pytest.raises(har.ConfigError, match=rf"^--dataset: cannot read {re.escape(str(path))}: "):
        har.build_problem(har.RunConfig(algorithm="mem", p=3, problem="datafit", dataset=str(path),
                                        iters=1))
    for command in (["run", "--alg", "mem", "--p", "3", "--iters", "3"],
                    ["compare", "--algs", "mem:2", "--budget", "4", "--seeds", "1"]):
        assert har.main([*command, "--problem", "datafit", "--dataset", str(path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: --dataset: cannot read {path}: [Errno 2] ")


def test_cli_reports_a_dataset_with_no_feature_column(tmp_path, capsys):
    path = tmp_path / "target_only.csv"
    path.write_text("target\n1\n2\n3\n")
    rc = har.main(["run", "--alg", "mem", "--p", "3", "--problem", "datafit",
                   "--dataset", str(path), "--iters", "3"])
    assert rc == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {path}: no feature columns besides the target\n"


def test_cli_reports_an_impossible_size(capsys):
    # 10^7 x 10^7 doubles are 8e14 bytes, beyond the address space: numpy
    # refuses the allocation before touching any memory
    rc = har.main(["run", "--alg", "mem", "--p", "3", "--problem", "datafit",
                   "--synthetic", "10000000", "--iters", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_cli_unknown_subcommand(capsys):
    assert har.main(["frobnicate"]) == 2


def test_cli_gen_data_round_trips(tmp_path):
    out = tmp_path / "gen.csv"
    rc = har.main(["gen-data", "--n", "7", "--seed", "3", "--out", str(out)])
    assert rc == 0
    ds = prob.load_csv_dataset(out)
    assert ds.m == ds.n == 7
    # the same bytes save_dataset writes, csv's \r\n line ends included
    saved = tmp_path / "saved.csv"
    prob.save_dataset(prob.generate_synthetic(7, seed=3), saved)
    assert out.read_bytes() == saved.read_bytes()
    assert saved.read_bytes().count(b"\r\n") == 8
    assert out.read_bytes().decode() == prob.dataset_to_csv(prob.generate_synthetic(7, seed=3))


def test_cli_compare_runs(tmp_path, capsys):
    rc = har.main(["compare", "--algs", "sg,sg-pm:0.5:0.1",
                   "--problem", "datafit", "--synthetic", "6",
                   "--sigma", "1.0", "--budget", "20", "--seeds", "2"])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    assert table["labels"] == ["sg", "sg-pm:0.5:0.1"]
    assert table["iterations"]["sg"] == 20
    assert set(table["ordering"]) == set(table["labels"])


@pytest.mark.parametrize(
    "token, words",
    [
        ("mem:abc", ["Q", "integer"]),
        ("nigt:a:b", ["GAMMA", "number"]),
        ("sg:x", ["ETA", "number"]),
        ("mem:0", ["Q", ">= 1"]),
        ("sg-pm:1:2:3", ["malformed", "sg-pm:GAMMA:ETA"]),
        ("sg:inf", ["eta must be finite, got inf"]),
        ("sg-pm:0.5:-inf", ["eta must be finite, got -inf"]),
        ("nigt:0.5:inf", ["eta must be finite, got inf"]),
    ],
)
def test_cli_compare_token_errors_name_the_token(capsys, token, words):
    rc = har.main(["compare", "--algs", f"sg,{token}", "--problem", "datafit",
                   "--synthetic", "6", "--budget", "10", "--seeds", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --algs") and repr(token) in err
    for word in words:
        assert word in err


def test_cli_verify_exit_codes(tmp_path, capsys, monkeypatch):
    import momex.verify as ver

    rc = har.main(["verify", "--k-max", "40", "--bound-k-max", "200",
                   "--draws", "10000"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])

    # plant a failure and the exit status must flip
    broken = ver.CheckReport("sum-identity:p2", False, 1.0, 1, "planted")
    monkeypatch.setattr(ver, "sum_identity_check", lambda *a, **k: broken)
    rc = har.main(["verify", "--k-max", "40", "--bound-k-max", "200",
                   "--draws", "10000"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


_COMPARE = ["compare", "--algs", "sg", "--problem", "quadratic", "--dim", "2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen-data", "--n", "5", "--seed", "-1"], "--seed"),
        (["gen-data", "--n", "0"], "--n"),
        ([*_COMPARE, "--budget", "10", "--seeds", "0"], "--seeds"),
        ([*_COMPARE, "--budget", "10", "--base-seed", "-1"], "--base-seed"),
        ([*_COMPARE, "--budget", "0"], "--budget"),
        (["verify", "--k-max", "-1"], "--k-max"),
        (["verify", "--bound-k-max", "-1"], "--bound-k-max"),
        (["verify", "--draws", "5"], "--draws"),
        (["verify", "--seed", "-1"], "--seed"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_bounds_name_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "g.csv"
    if argv[0] == "gen-data":
        argv = [*argv, "--out", str(out)]
    assert har.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: must be >= ")
    assert not out.exists()


def test_verify_report_at_small_sizes_is_json():
    report = har.verify_all(k_max=3, bound_k_max=0, n_draws=10_000, ps=(2, 3))
    assert json.loads(json.dumps(report)) == report
    assert all(type(c["passed"]) is bool for c in report["checks"])


# ---------------------------------------------------------------------------
# compare and grid search
# ---------------------------------------------------------------------------

def test_compare_budget_parity_and_median_table():
    base = dict(problem="datafit", synthetic=8, sigma=1.0,
                noise="scalar-gaussian-envelope", iters=1)
    c2 = har.RunConfig(algorithm="mem", p=3, q=2, **base)
    c1 = har.RunConfig(algorithm="mem", p=2, q=1, **base)
    table = har.compare([c2, c1], budget=40, n_seeds=3)
    labels = table["labels"]
    assert table["iterations"][labels[0]] == 20  # two calls per iteration
    assert table["iterations"][labels[1]] == 40
    for lb in labels:
        assert len(table["final"][lb]) == 3
        assert table["median_final"][lb] > 0
    assert len(table["series"][labels[0]]) >= 2


def test_compare_rejects_mismatched_problems():
    a = har.RunConfig(algorithm="sg", problem="datafit", synthetic=8, iters=1)
    b = har.RunConfig(algorithm="sg", problem="datafit", synthetic=9, iters=1)
    with pytest.raises(ValueError, match="share the problem"):
        har.compare([a, b], budget=10)
    with pytest.raises(ValueError, match="n_seeds"):
        har.compare([a], budget=10, n_seeds=0)
    with pytest.raises(ValueError, match="base_seed"):
        har.compare([a], budget=10, base_seed=-1)
    with pytest.raises(ValueError, match="^compare needs at least one configuration$"):
        har.compare([], budget=10)
    with pytest.raises(ValueError, match="^1 labels for 2 configurations$"):
        har.compare([a, a], budget=10, labels=["x"])


def test_compare_rejects_duplicate_labels(capsys):
    a = har.RunConfig(algorithm="sg", problem="datafit", synthetic=8, iters=1)
    with pytest.raises(ValueError, match="'x' is given twice"):
        har.compare([a, a], budget=10, labels=["x", "x"])
    # unlabelled repeats are numbered apart, so none of their runs is lost
    table = har.compare([a, a], budget=10, n_seeds=1)
    assert table["labels"] == ["sg", "sg#2"]
    assert len(table["final"]) == 2

    rc = har.main(["compare", "--algs", "sg-pm:0.1:0.01,sg-pm:0.1:0.01",
                   "--problem", "datafit", "--synthetic", "20", "--sigma", "1",
                   "--budget", "50", "--seeds", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: label 'sg-pm:0.1:0.01' is given twice")


def test_compare_builds_the_problem_once(monkeypatch):
    built, kinds = [], []
    build_problem, build_kind = har.build_problem, har.build_kind
    monkeypatch.setattr(har, "build_problem", lambda c: built.append(c) or build_problem(c))
    monkeypatch.setattr(har, "build_kind", lambda c: kinds.append(c) or build_kind(c))
    monkeypatch.setattr(har, "run_experiment", None)
    base = dict(problem="datafit", synthetic=8, sigma=1.0, iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=3, **base),
        har.RunConfig(algorithm="sg-pm", **base),
        har.RunConfig(algorithm="nigt", gamma=0.2, eta=0.05, **base),
    ]
    table = har.compare(configs, budget=20, n_seeds=3)
    assert built == configs[:1]
    assert kinds == configs
    assert all(len(table["final"][lb]) == 3 for lb in table["labels"])


def test_compare_on_a_dataset_matches_run_experiment(tmp_path):
    path = tmp_path / "data.csv"
    prob.save_dataset(prob.generate_synthetic(12, 4), str(path))
    base = dict(problem="datafit", dataset=str(path), sigma=2.0, iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=3, **base),
        har.RunConfig(algorithm="sg-pm", gamma=0.2, eta=0.05, **base),
    ]
    table = har.compare(configs, budget=60, n_seeds=3, base_seed=2)
    for cfg, label in zip(configs, table["labels"]):
        iters = table["iterations"][label]
        per_seed = [
            har.run_experiment(
                replace(cfg, iters=iters, seed=s, log_stride=max(1, iters // 200))
            )[0]
            for s in table["seeds"]
        ]
        assert table["final"][label] == [recs[-1].rel_obj for recs in per_seed]
        assert [row["rel_obj_median"] for row in table["series"][label]] == [
            statistics.median(rows) for rows in zip(*[[r.rel_obj for r in recs] for recs in per_seed])
        ]


def test_compare_on_robust_with_elementwise_noise_matches_run_experiment():
    base = dict(problem="robust", synthetic=10, data_seed=3, sigma=1.5,
                noise="elementwise-gaussian-envelope", iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=4, **base),
        har.RunConfig(algorithm="sg", eta=0.02, **base),
        har.RunConfig(algorithm="nigt", gamma=0.3, eta=0.03, **base),
    ]
    table = har.compare(configs, budget=450, n_seeds=3, base_seed=11)
    for cfg, label in zip(configs, table["labels"]):
        iters = table["iterations"][label]
        runs = [
            har.run_experiment(
                replace(cfg, iters=iters, seed=s, log_stride=max(1, iters // 200))
            )
            for s in table["seeds"]
        ]
        assert table["final"][label] == [recs[-1].rel_obj for recs, _ in runs]
        assert table["status"][label] == [summary["status"] for _, summary in runs]
        first = [(row["k"], row["oracle_calls"]) for row in table["series"][label]]
        assert first == [(r.k, r.oracle_calls) for r in runs[0][0]]
    assert table["warnings"] == []


def test_compare_draws_each_seed_and_iteration_once(monkeypatch):
    import momex.optimizer as opt

    calls, blocks = [], []  # the (seed, k) pairs drawn with noise; every block returned
    draw = opt.draw_block

    def counted(noise, dim, seeds, k0, k1):
        if noise.kind != "none":
            calls.extend((s, k) for k in range(k0, k1) for s in seeds)
        blocks.append(draw(noise, dim, seeds, k0, k1))
        return blocks[-1]

    monkeypatch.setattr(opt, "draw_block", counted)
    base = dict(problem="datafit", synthetic=8, sigma=1.0, iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=3, **base),
        har.RunConfig(algorithm="mem", p=4, **base),
        har.RunConfig(algorithm="sg-pm", **base),
    ]
    table = har.compare(configs, budget=600, n_seeds=3)
    assert max(table["iterations"].values()) == 600
    assert len(calls) == 3 * 600
    assert len(set(calls)) == 3 * 600
    calls.clear()
    blocks.clear()
    har.compare([replace(c, noise="none", sigma=None) for c in configs], budget=60, n_seeds=2)
    assert calls == []  # nothing to draw without noise
    assert blocks and not any(b.any() for b in blocks)


def test_compare_says_when_a_median_takes_in_non_finite_finals(capsys):
    argv = ["compare", "--algs", "sg:1.0,sg:0.001", "--problem", "quadratic",
            "--dim", "5", "--conditioning", "1000", "--budget", "150", "--seeds", "2"]
    assert har.main(argv) == 0
    out = capsys.readouterr()
    table = json.loads(out.out)
    assert table["status"] == {"sg:1.0": ["non-finite at 51"] * 2,
                               "sg:0.001": ["completed"] * 2}
    assert table["warnings"] == ["median_final of 'sg:1.0' includes non-finite finals (seeds [0, 1])"]
    assert "warning: median_final of 'sg:1.0'" in out.err
    _, summary = har.run_experiment(har.RunConfig(
        algorithm="sg", eta=1.0, problem="quadratic", dim=5, conditioning=1000.0, iters=150))
    assert summary["status"] == "non-finite at 51"


def test_grid_search_surface():
    cfg = har.RunConfig(algorithm="mem", p=3, q=2, problem="datafit",
                        synthetic=6, iters=1)
    with pytest.raises(ValueError, match="parameter-free"):
        har.grid_search(cfg, budget=10)
    sweep = har.grid_search(
        har.RunConfig(algorithm="sg", problem="datafit", synthetic=6, iters=1),
        budget=10, etas=[0.1, 0.01], n_seeds=2,
    )
    assert len(sweep["grid"]) == 2
    assert sweep["best"]["median_final_rel_obj"] == min(
        g["median_final_rel_obj"] for g in sweep["grid"]
    )


def test_grid_search_rows_are_medians_of_seeded_runs():
    cfg = har.RunConfig(algorithm="sg-pm", problem="robust", synthetic=8,
                        sigma=1.0, iters=1)
    sweep = har.grid_search(cfg, budget=30, etas=[0.05, 0.2], gammas=[0.1, 0.5],
                            n_seeds=3, base_seed=1)
    assert len(sweep["grid"]) == 4
    for row in sweep["grid"]:
        finals = [
            har.run_experiment(
                replace(cfg, gamma=row["gamma"], eta=row["eta"], iters=30, seed=s)
            )[0][-1].rel_obj
            for s in (1, 2, 3)
        ]
        assert row["median_final_rel_obj"] == statistics.median(finals)
    medians = [row["median_final_rel_obj"] for row in sweep["grid"]]
    assert medians == sorted(medians)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        har.grid_search(cfg, budget=0, etas=[0.05], gammas=[0.1])


# ---------------------------------------------------------------------------
# one row per algorithm: checks, kinds, labels, tokens and grid axes
# ---------------------------------------------------------------------------

# each algorithm's smallest valid hyperparameters, and a value for every field
_ALG_BASE = {"mem": dict(p=3), "sg": {}, "sg-pm": {}, "nigt": dict(gamma=0.5, eta=0.1)}
_ANY = dict(p=3, q=2, gamma=0.5, eta=0.1)
_NOT_TAKEN = [("mem", "gamma"), ("mem", "eta"), ("sg", "p"), ("sg", "q"), ("sg", "gamma"),
              ("sg-pm", "p"), ("sg-pm", "q"), ("nigt", "p"), ("nigt", "q")]


@pytest.mark.parametrize("alg, field", _NOT_TAKEN)
def test_a_field_the_algorithm_does_not_take_is_refused(capsys, alg, field):
    flag = "--" + field
    with pytest.raises(har.ConfigError, match=f"^{flag} does not apply to {alg}$"):
        har.RunConfig(algorithm=alg, problem="quadratic", dim=2, iters=1,
                      **{**_ALG_BASE[alg], field: _ANY[field]})
    argv = [f"--{k}={v}" for k, v in {**_ALG_BASE[alg], field: _ANY[field]}.items()]
    assert har.main(["run", "--alg", alg, "--problem", "quadratic", "--dim", "2",
                     "--iters", "1", *argv]) == 2
    assert capsys.readouterr().err == f"error: {flag} does not apply to {alg}\n"


def test_mem_reports_a_field_it_does_not_take_before_a_missing_p():
    with pytest.raises(har.ConfigError, match="^--gamma does not apply to mem$"):
        har.RunConfig(algorithm="mem", gamma=0.5, problem="quadratic", dim=2, iters=1)


@pytest.mark.parametrize(
    "kwargs, label",
    [
        (dict(algorithm="mem", p=3), "mem(q=2,p=3)"),
        (dict(algorithm="mem", p=10**7), "mem(q=9999999,p=10000000)"),
        (dict(algorithm="sg"), "sg"),
        (dict(algorithm="sg", eta=0.1), "sg(eta=0.1)"),
        (dict(algorithm="sg", eta=10**7), "sg(eta=1e+07)"),
        (dict(algorithm="sg-pm"), "sg-pm"),
        (dict(algorithm="sg-pm", gamma=0.5), "sg-pm(gamma=0.5)"),
        (dict(algorithm="sg-pm", eta=0.05), "sg-pm(eta=0.05)"),
        (dict(algorithm="sg-pm", gamma=0.5, eta=1e-7), "sg-pm(gamma=0.5,eta=1e-07)"),
        (dict(algorithm="nigt", gamma=0.25, eta=2), "nigt(gamma=0.25,eta=2)"),
    ],
)
def test_labels(kwargs, label):
    assert har._label(har.RunConfig(problem="quadratic", dim=2, iters=1, **kwargs)) == label


@pytest.mark.parametrize(
    "alg, kind",
    [("mem", ("mem", 2, True)), ("sg", ("sg", 1, False)), ("sg-pm", ("sg-pm", 1, True)),
     ("nigt", ("nigt", 1, True))],
)
def test_build_kind_per_algorithm(alg, kind):
    built = har.build_kind(har.RunConfig(algorithm=alg, problem="quadratic", dim=2, iters=1,
                                         **_ALG_BASE[alg]))
    assert (built.name, built.q, built.normalized) == kind


@pytest.mark.parametrize(
    "alg, axes",
    [
        ("sg", [(None, 0.2), (None, 0.1)]),
        ("sg-pm", [(0.3, 0.2), (0.3, 0.1), (0.5, 0.2), (0.5, 0.1)]),
        ("nigt", [(0.3, 0.2), (0.3, 0.1), (0.5, 0.2), (0.5, 0.1)]),
    ],
)
def test_grid_search_axes_per_algorithm(monkeypatch, alg, axes):
    seen = []

    def fake_compare(configs, budget, n_seeds, base_seed):
        seen.extend((c.gamma, c.eta) for c in configs)
        labels = [str(i) for i in range(len(configs))]
        return {"labels": labels, "median_final": {lb: 0.0 for lb in labels}}

    monkeypatch.setattr(har, "compare", fake_compare)
    cfg = har.RunConfig(algorithm=alg, problem="quadratic", dim=2, iters=1, **_ALG_BASE[alg])
    sweep = har.grid_search(cfg, budget=4, etas=[0.2, 0.1], gammas=[0.3, 0.5])
    assert seen == axes
    assert [(r["gamma"], r["eta"]) for r in sweep["grid"]] == axes


def test_grid_search_refuses_mem():
    cfg = har.RunConfig(algorithm="mem", p=3, problem="quadratic", dim=2, iters=1)
    with pytest.raises(ValueError, match="^mem's schedule is parameter-free; nothing to search$"):
        har.grid_search(cfg, budget=4)


@pytest.mark.parametrize(
    "token, vals",
    [
        ("mem:2", dict(algorithm="mem", q=2, p=3)),
        ("sg", dict(algorithm="sg")),
        ("sg:0.1", dict(algorithm="sg", eta=0.1)),
        ("sg-pm", dict(algorithm="sg-pm")),
        ("sg-pm:0.1", dict(algorithm="sg-pm", eta=0.1)),
        ("sg-pm:0.5:0.1", dict(algorithm="sg-pm", gamma=0.5, eta=0.1)),
        ("nigt:0.5:0.1", dict(algorithm="nigt", gamma=0.5, eta=0.1)),
    ],
)
def test_every_algs_token_form_is_accepted(token, vals):
    assert har._parse_alg_token(token) == vals
    har.RunConfig(**vals, problem="quadratic", dim=2, iters=1)


@pytest.mark.parametrize(
    "token, forms",
    [
        ("mem", "mem:Q"),
        ("mem:1:2", "mem:Q"),
        ("sg:1:2", "sg or sg:ETA"),
        ("sg-pm:1:2:3", "sg-pm or sg-pm:ETA or sg-pm:GAMMA:ETA"),
        ("nigt:0.5", "nigt:GAMMA:ETA"),
    ],
)
def test_a_malformed_algs_token_lists_the_forms(token, forms):
    with pytest.raises(har.ConfigError) as err:
        har._parse_alg_token(token)
    assert str(err.value) == f"--algs: malformed token {token!r}; expected {forms}"


# ---------------------------------------------------------------------------
# one text per hyperparameter rule: constructor, RunConfig, run and --algs
# ---------------------------------------------------------------------------

# each algorithm's constructor, called as a config of its fields calls it
_CONSTRUCTORS = {
    "mem": lambda p=None, q=None: opt.mem(sched.ScheduleConfig(p=p, q=q)),
    "sg": lambda eta=None: opt.sg(eta),
    "sg-pm": lambda gamma=None, eta=None: opt.sg_pm(gamma, eta),
    "nigt": lambda gamma=None, eta=None: opt.nigt(gamma, eta),
}
_NAN = float("nan")
_P_RULE = "p, the smoothness order, must be an integer >= 2, got "
# (algorithm, its other, valid hyperparameters, the field, the bad value (None:
# a required value left out), the constructor's text, an --algs token or None)
_BAD_VALUES = [
    ("mem", {}, "p", None, _P_RULE + "None", None),
    ("mem", {}, "p", 1, _P_RULE + "1", None),
    ("mem", {}, "p", -2, _P_RULE + "-2", None),
    ("mem", {"p": 3}, "q", 1, "q must equal p - 1 = 2 for the order-p schedule, got 1", None),
    ("mem", {"p": 3}, "q", 3, "q must equal p - 1 = 2 for the order-p schedule, got 3", None),
    ("sg", {}, "eta", 0.0, "eta must be positive, got 0.0", "sg:0.0"),
    ("sg", {}, "eta", -1.0, "eta must be positive, got -1.0", "sg:-1.0"),
    ("sg", {}, "eta", _NAN, "eta must be finite, got nan", "sg:nan"),
    ("sg", {}, "eta", math.inf, "eta must be finite, got inf", "sg:inf"),
    ("sg-pm", {"eta": 0.1}, "gamma", 0.0, "gamma must be in (0, 1], got 0.0", "sg-pm:0.0:0.1"),
    ("sg-pm", {"eta": 0.1}, "gamma", 1.5, "gamma must be in (0, 1], got 1.5", "sg-pm:1.5:0.1"),
    ("sg-pm", {"eta": 0.1}, "gamma", _NAN, "gamma must be finite, got nan", "sg-pm:nan:0.1"),
    ("sg-pm", {}, "eta", 0.0, "eta must be positive, got 0.0", "sg-pm:0.0"),
    ("sg-pm", {"gamma": 0.5}, "eta", -1.0, "eta must be positive, got -1.0", "sg-pm:0.5:-1.0"),
    ("sg-pm", {}, "eta", _NAN, "eta must be finite, got nan", "sg-pm:nan"),
    ("sg-pm", {"gamma": 0.5}, "eta", math.inf, "eta must be finite, got inf", "sg-pm:0.5:inf"),
    ("nigt", {"eta": 0.1}, "gamma", None, "gamma must be in (0, 1), got None", None),
    ("nigt", {"eta": 0.1}, "gamma", 0.0, "gamma must be in (0, 1), got 0.0", "nigt:0.0:0.1"),
    ("nigt", {"eta": 0.1}, "gamma", 1.0, "gamma must be in (0, 1), got 1.0", "nigt:1.0:0.1"),
    ("nigt", {"eta": 0.1}, "gamma", 1.5, "gamma must be in (0, 1), got 1.5", "nigt:1.5:0.1"),
    ("nigt", {"eta": 0.1}, "gamma", _NAN, "gamma must be finite, got nan", "nigt:nan:0.1"),
    ("nigt", {"gamma": 0.5}, "eta", None, "eta must be positive, got None", None),
    ("nigt", {"gamma": 0.5}, "eta", 0.0, "eta must be positive, got 0.0", "nigt:0.5:0.0"),
    ("nigt", {"gamma": 0.5}, "eta", -1.0, "eta must be positive, got -1.0", "nigt:0.5:-1.0"),
    ("nigt", {"gamma": 0.5}, "eta", _NAN, "eta must be finite, got nan", "nigt:0.5:nan"),
    ("nigt", {"gamma": 0.5}, "eta", math.inf, "eta must be finite, got inf", "nigt:0.5:inf"),
]


@pytest.mark.parametrize("alg, others, field, value, text, token", _BAD_VALUES,
                         ids=[f"{a}-{f}-{v}" for a, _, f, v, _, _ in _BAD_VALUES])
def test_a_bad_hyperparameter_reads_the_same_on_every_path(capsys, alg, others, field, value,
                                                           text, token):
    """The kind's constructor refuses the value with a text led by the
    field's name; RunConfig gives that text behind the flag, momex run
    prints it as its one error line (exit 2), and compare --algs behind the
    token. A value that is not finite reads the constructor's finiteness
    text, which RunConfig's own rule for every float field matches."""
    given = {**others, field: value}
    with pytest.raises(ValueError) as err:
        _CONSTRUCTORS[alg](**given)
    assert str(err.value) == text
    with pytest.raises(har.ConfigError) as err:
        har.RunConfig(algorithm=alg, problem="quadratic", dim=2, iters=1, **given)
    assert str(err.value) == f"--{text}"
    flags = [f"--{k}={v}" for k, v in given.items() if v is not None]
    assert har.main(["run", "--alg", alg, "--problem", "quadratic", "--dim", "2",
                     "--iters", "1", *flags]) == 2
    assert capsys.readouterr().err == f"error: --{text}\n"
    if token is not None:
        assert har.main(["compare", "--algs", f"sg,{token}", "--problem", "quadratic",
                         "--dim", "2", "--budget", "4", "--seeds", "1"]) == 2
        assert capsys.readouterr().err == f"error: --algs: {token!r}: {text}\n"


def test_compare_names_its_own_label_below_one_iteration(capsys):
    assert har.main(["compare", "--algs", "sg,mem:2", "--problem", "datafit", "--synthetic", "6",
                     "--budget", "1", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == "error: budget 1 is below one iteration (2 calls) for mem:2\n"
    base = dict(problem="datafit", synthetic=6, iters=1)
    configs = [har.RunConfig(algorithm="sg", **base), har.RunConfig(algorithm="mem", p=3, **base)]
    with pytest.raises(ValueError, match=r"^budget 1 is below one iteration \(2 calls\) for deep$"):
        har.compare(configs, 1, n_seeds=1, labels=["plain", "deep"])
    with pytest.raises(ValueError, match=r"for mem\(q=2,p=3\)$"):
        har.compare(configs, 1, n_seeds=1)
