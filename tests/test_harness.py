import json
import math
import statistics
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momex.harness as har
import momex.problems as prob
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
        st.fixed_dictionaries({"problem": st.sampled_from(["datafit", "robust"])},
                              optional={"data_seed": st.integers(0, 2**32)}).flatmap(
            lambda d: st.one_of(
                st.fixed_dictionaries({"synthetic": st.integers(1, 500)}),
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
    """The parser a subcommand builds, caught as it parses argv."""
    seen = []

    def catch(self, args):
        seen.append(self)
        raise har.ConfigError("caught")

    monkeypatch.setattr(har._Parser, "parse_args", catch)
    assert har.main(argv) == 2
    return {a.dest: a for a in seen[0]._actions}


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
        a, b = kind.params(k), params_general(k, 3)
        assert a.k == b.k and a.eta == b.eta and a.theta_sum == b.theta_sum
        np.testing.assert_array_equal(a.gammas, b.gammas)
        np.testing.assert_array_equal(a.thetas, b.thetas)


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


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "sg", "--problem", "quadratic", "--dim", "2", "--iters", "3"],
    ["compare", "--algs", "sg", "--problem", "quadratic", "--dim", "2", "--budget", "3",
     "--seeds", "1"],
    ["verify", "--k-max", "3", "--bound-k-max", "0", "--draws", "10000"],
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_names_the_path(tmp_path, capsys, argv):
    path = tmp_path / "no" / "such.json"
    assert har.main([*argv, "--out", str(path)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: cannot write {path}: ")


def test_cli_rejects_bad_input(capsys):
    rc = har.main(["run", "--alg", "mem", "--problem", "datafit",
                   "--synthetic", "6", "--iters", "3"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_unknown_subcommand(capsys):
    assert har.main(["frobnicate"]) == 2


def test_cli_gen_data_round_trips(tmp_path):
    out = tmp_path / "gen.csv"
    rc = har.main(["gen-data", "--n", "7", "--seed", "3", "--out", str(out)])
    assert rc == 0
    ds = prob.load_csv_dataset(out)
    assert ds.m == ds.n == 7


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

    calls = []
    draw = opt.draw_sample
    monkeypatch.setattr(opt, "draw_sample", lambda *a: calls.append(a) or draw(*a))
    base = dict(problem="datafit", synthetic=8, sigma=1.0, iters=1)
    configs = [
        har.RunConfig(algorithm="mem", p=3, **base),
        har.RunConfig(algorithm="mem", p=4, **base),
        har.RunConfig(algorithm="sg-pm", **base),
    ]
    table = har.compare(configs, budget=600, n_seeds=3)
    assert max(table["iterations"].values()) == 600
    assert len(calls) == 3 * 600
    assert len({(a[2], a[3]) for a in calls}) == 3 * 600
    calls.clear()
    har.compare([replace(c, noise="none", sigma=None) for c in configs], budget=60, n_seeds=2)
    assert calls == []  # nothing to draw without noise


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
