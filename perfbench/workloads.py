"""The four workloads: their inputs, their timed operation and their checks.

Each workload turns the benchmark's seed into inputs, runs one operation
through momex's public functions, and checks the output against quantities
it computes itself or against properties the method must have. No check
compares with a stored copy of an earlier output.

A workload's operation is a whole round of the same work, so the number of
operations a round attempts never depends on the seed or on the run length.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

SIZES = {
    "full": {
        "compare_budget": 1000,
        "compare_seeds": 4,
        "quad_iters": 100_000,
        "robust_n": 1000,
        "robust_iters": 1500,
        # verify_all's defaults, written out so that a change of the
        # defaults does not change the benchmark
        "verify": {"k_max": 10**4, "bound_k_max": 10**6, "n_draws": 10**5},
    },
    # The quadratic keeps its full length: its gradient target (1e-3, the
    # acceptance gate's) is only reached near 1e5 iterations.
    "small": {
        "compare_budget": 200,
        "compare_seeds": 2,
        "quad_iters": 100_000,
        "robust_n": 100,
        "robust_iters": 200,
        "verify": {"k_max": 200, "bound_k_max": 2000, "n_draws": 10_000},
    },
}


def load_momex():
    """Import momex afresh (numpy stays loaded) and return its modules."""
    for key in [k for k in sys.modules if k == "momex" or k.startswith("momex.")]:
        del sys.modules[key]
    importlib.import_module("momex")
    return SimpleNamespace(
        **{
            name: importlib.import_module(f"momex.{name}")
            for name in ("harness", "optimizer", "problems", "schedule", "verify")
        }
    )


@dataclass
class Outcome:
    """How one round's output fared: operations attempted and failed, and
    a line for each failed check."""

    attempted: int
    failed: int = 0
    errors: list = field(default_factory=list)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def _seeds(seed: int, count: int):
    return [int(v) for v in np.random.default_rng(seed).integers(0, 2**31, size=count)]


class CompareDesk:
    """harness.compare on the acceptance gate's desk-scale shape: 4 methods
    at one oracle-call budget over several seeds, on compare's pool."""

    name = "compare-desk"
    n = 50
    sigma = 10.0
    # the gate's sg-pm constants, used for nigt too
    gamma = 0.12649110640673517
    eta = 0.01

    def setup(self, m, seed: int, size: dict):
        data_seed, base_seed = _seeds(seed, 2)
        base = dict(
            problem="datafit",
            synthetic=self.n,
            data_seed=data_seed,
            sigma=self.sigma,
            noise="scalar-gaussian-envelope",
            x0="ones",
            iters=1,
        )
        RunConfig = m.harness.RunConfig
        configs = [
            RunConfig(algorithm="mem", p=3, q=2, **base),
            RunConfig(algorithm="mem", p=2, q=1, **base),
            RunConfig(algorithm="sg-pm", gamma=self.gamma, eta=self.eta, **base),
            RunConfig(algorithm="nigt", gamma=self.gamma, eta=self.eta, **base),
        ]
        return {
            "m": m,
            "configs": configs,
            "budget": size["compare_budget"],
            "n_seeds": size["compare_seeds"],
            "base_seed": base_seed,
        }

    def attempted(self, inp) -> int:
        return len(inp["configs"]) * inp["n_seeds"]

    def op(self, inp, tracer=None):
        return inp["m"].harness.compare(
            inp["configs"], inp["budget"], n_seeds=inp["n_seeds"], base_seed=inp["base_seed"]
        )

    def oracle_calls(self, out) -> int:
        # compare reports the rows of each label's first seed; every seed of
        # a label runs the same number of iterations
        return sum(len(out["seeds"]) * rows[-1]["oracle_calls"] for rows in out["series"].values())

    def counts(self, out) -> dict:
        return {}

    def reference(self, inp, out) -> dict:
        return {"median_final": out["median_final"]}

    def check(self, inp, out, round_index: int) -> Outcome:
        """A run is one (config, seed); a check on a whole label fails all
        its seeds. One pair, chosen by the round index, is run again
        serially through run_experiment and must match bit for bit."""
        outcome = Outcome(attempted=self.attempted(inp))
        errors, bad = outcome.errors, set()
        configs, n_seeds, budget = inp["configs"], inp["n_seeds"], inp["budget"]
        seeds = list(range(inp["base_seed"], inp["base_seed"] + n_seeds))
        labels = out["labels"]
        if len(set(labels)) != len(configs) or out["seeds"] != seeds:
            errors.append(f"labels {labels} and seeds {out['seeds']} for {len(configs)} configs, seeds {seeds}")
            bad.update((i, j) for i in range(len(configs)) for j in range(n_seeds))
        pick = (round_index % len(configs), (round_index // len(configs)) % n_seeds)
        for i, (config, label) in enumerate(zip(configs, labels)):
            q = config.q if config.algorithm == "mem" else 1
            iters = budget // q
            final = out["final"].get(label, [])
            whole = [(i, j) for j in range(n_seeds)]
            if out["iterations"].get(label) != iters or len(final) != n_seeds:
                errors.append(f"{label}: iterations {out['iterations'].get(label)} (expected {iters}), "
                              f"{len(final)} finals (expected {n_seeds})")
                bad.update(whole)
                continue
            last = out["series"][label][-1]
            if last["k"] != iters or last["oracle_calls"] != q * iters:
                errors.append(f"{label}: last row k={last['k']} oracle_calls={last['oracle_calls']}, "
                              f"expected {iters} and {q * iters}")
                bad.add((i, 0))
            for j, value in enumerate(final):
                if not math.isfinite(value):
                    errors.append(f"{label} seed {seeds[j]}: final {value!r}")
                    bad.add((i, j))
            ordered, mid = sorted(final), n_seeds // 2
            median = ordered[mid] if n_seeds % 2 else (ordered[mid - 1] + ordered[mid]) / 2
            if out["median_final"].get(label) != median:
                errors.append(f"{label}: median_final {out['median_final'].get(label)!r}, benchmark computes {median!r}")
                bad.update(whole)
            if i == pick[0]:
                j = pick[1]
                cfg = replace(config, iters=iters, seed=seeds[j], log_stride=max(1, iters // 200))
                records, _ = inp["m"].harness.run_experiment(cfg)
                if records[-1].rel_obj != final[j] or records[-1].oracle_calls != q * iters:
                    errors.append(f"{label} seed {seeds[j]}: run alone ends at {records[-1].rel_obj!r} "
                                  f"after {records[-1].oracle_calls} calls, compare gives {final[j]!r}")
                    bad.add((i, j))
        outcome.failed = len(bad)
        return outcome


class QuadraticTrace:
    """harness.run_experiment on the gate's noise-free quadratic, then CSV."""

    name = "quadratic-trace"
    dim = 10
    conditioning = 10.0

    def setup(self, m, seed: int, size: dict):
        # x0 has entries +-1: the quadratic is diagonal, so every sign pattern
        # gives the same work and the same f(x0) = sum(lambda)/2 as x0 = ones
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=self.dim)
        config = m.harness.RunConfig(
            algorithm="mem",
            p=3,
            q=2,
            problem="quadratic",
            dim=self.dim,
            conditioning=self.conditioning,
            noise="none",
            iters=size["quad_iters"],
            seed=seed,
            log_stride=1,
            x0=",".join(repr(float(v)) for v in signs),
        )
        return {"m": m, "config": config}

    def attempted(self, inp) -> int:
        return 1

    def op(self, inp, tracer=None):
        h = inp["m"].harness
        records, summary = h.run_experiment(inp["config"])
        return {"records": records, "summary": summary, "csv": h.records_to_csv(records)}

    def oracle_calls(self, out) -> int:
        return out["summary"]["oracle_calls"]

    def counts(self, out) -> dict:
        return {"harness.csv_rows": len(out["records"])}

    def reference(self, inp, out) -> dict:
        return {"min_grad_norm": out["summary"]["min_grad_norm"]}

    def check(self, inp, out, round_index: int) -> Outcome:
        outcome = Outcome(attempted=self.attempted(inp))
        errors = outcome.errors
        K = inp["config"].iters
        records, summary = out["records"], out["summary"]
        if not summary["min_grad_norm"] <= 1e-3:
            errors.append(f"min_grad_norm {summary['min_grad_norm']:.3e} above 1e-3")
        if len(records) != K + 1:
            errors.append(f"{len(records)} rows, expected {K + 1}")
        if summary["oracle_calls"] != 2 * K or records[-1].oracle_calls != 2 * K:
            errors.append(f"oracle_calls {summary['oracle_calls']}, expected {2 * K}")
        lam = self.conditioning ** (np.arange(self.dim) / (self.dim - 1.0))
        f0 = 0.5 * math.fsum(lam)
        f = np.array([r.f_val for r in records])
        g2 = np.array([r.grad_norm for r in records]) ** 2
        rel = np.array([r.rel_obj for r in records])
        low = int(np.count_nonzero(g2 < 2.0 * lam.min() * f * (1.0 - 1e-12)))
        high = int(np.count_nonzero(g2 > 2.0 * lam.max() * f * (1.0 + 1e-12)))
        if low or high:
            errors.append(f"{low + high} rows break 2 lmin f <= |g|^2 <= 2 lmax f")
        worst = float(np.max(np.abs(rel - f / f0) / (f / f0)))
        if not worst <= 1e-12:
            errors.append(f"rel_obj differs from f / f0 by {worst:.3e} (relative)")
        # parsed a slice at a time, so the check holds less memory than the run
        header, *lines = out["csv"].splitlines()
        parsed = len(lines) == len(records)
        for i in range(0, len(lines), 10_000):
            text = "\n".join([header] + lines[i : i + 10_000])
            parsed = parsed and inp["m"].harness.parse_records(text) == records[i : i + 10_000]
        if not parsed:
            errors.append("parse_records of the CSV does not return the records")
        outcome.failed = int(bool(errors))
        return outcome


class RobustWide:
    """optimizer.run of mem(p=4) on robust regression of order 1000."""

    name = "robust-wide"
    p = 4
    sigma = 1.0
    log_stride = 100

    def setup(self, m, seed: int, size: dict):
        data_seed, run_seed = _seeds(seed, 2)
        dataset = m.problems.generate_synthetic(size["robust_n"], data_seed)
        return {
            "m": m,
            "dataset": dataset,
            "problem": m.problems.robust_problem(dataset),
            "noise": m.problems.NoiseModel("elementwise-gaussian-envelope", self.sigma),
            "kind": m.optimizer.mem(m.schedule.ScheduleConfig(p=self.p, q=self.p - 1)),
            "x0": np.ones(dataset.n),
            "iters": size["robust_iters"],
            "run_seed": run_seed,
        }

    def attempted(self, inp) -> int:
        return 1

    def op(self, inp, tracer=None):
        problem = inp["problem"]
        if tracer is not None:
            problem = tracer.trace_problem(problem, inp["dataset"])
        return inp["m"].optimizer.run(
            inp["kind"],
            problem,
            inp["noise"],
            inp["x0"],
            budget=inp["iters"],
            seed=inp["run_seed"],
            log_stride=self.log_stride,
        )

    def oracle_calls(self, out) -> int:
        return out.state.oracle_calls

    def counts(self, out) -> dict:
        return {}

    def reference(self, inp, out) -> dict:
        return {"final_rel_obj": out.records[-1].rel_obj}

    def check(self, inp, out, round_index: int) -> Outcome:
        outcome = Outcome(attempted=self.attempted(inp))
        errors = outcome.errors
        K, p = inp["iters"], self.p
        state = out.state
        if state.k != K or state.zero_steps != 0:
            errors.append(f"k={state.k} (expected {K}), zero_steps={state.zero_steps}")
        if state.oracle_calls != (p - 1) * K:
            errors.append(f"oracle_calls {state.oracle_calls}, expected {(p - 1) * K}")
        eta = (K - 1.0 + p) ** (-(2.0 * p + 1.0) / (3.0 * p + 1.0))
        step = float(np.sqrt(np.sum((state.x_cur - state.x_prev) ** 2)))
        if not _rel(step, eta) <= 1e-12:
            errors.append(f"last step {step!r} vs eta_(K-1) {eta!r}")
        A, b = inp["dataset"].features, inp["dataset"].targets
        r = np.einsum("ij,j->i", A, state.x_cur) - b
        f = float(np.sum(r**2 / (1.0 + r**2)))
        g = np.einsum("ij,i->j", A, 2.0 * r / (1.0 + r**2) ** 2)
        last = out.records[-1]
        if last.k != K or not _rel(last.f_val, f) <= 1e-10:
            errors.append(f"last row k={last.k} f_val {last.f_val!r}, benchmark computes {f!r}")
        gn = float(np.sqrt(g @ g))
        if not _rel(last.grad_norm, gn) <= 1e-10:
            errors.append(f"last row grad_norm {last.grad_norm!r}, benchmark computes {gn!r}")
        outcome.failed = int(bool(errors))
        return outcome


class VerifySuite:
    """harness.verify_all at its default sizes: 27 checks on a 4-thread pool."""

    name = "verify-suite"
    n_checks = 27  # three per order p = 2..6, plus twelve more

    def setup(self, m, seed: int, size: dict):
        # the seed does not enter: verify's Monte-Carlo checks are statistical
        # tests, so they run at verify_all's default seed 0
        return {"m": m, "size": size["verify"]}

    def attempted(self, inp) -> int:
        return self.n_checks

    def op(self, inp, tracer=None):
        """verify_all's report, and how many stochastic_grad calls its checks
        made (the Monte-Carlo checks push draws through the public oracle)."""
        v = inp["m"].verify
        inner = v.stochastic_grad
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return inner(*args, **kwargs)

        v.stochastic_grad = counted
        try:
            report = inp["m"].harness.verify_all(**inp["size"])
        finally:
            v.stochastic_grad = inner
        return {"report": report, "oracle_calls": len(calls)}

    def oracle_calls(self, out) -> int:
        return out["oracle_calls"]

    def counts(self, out) -> dict:
        return {"verify.checks": len(out["report"]["checks"])}

    def reference(self, inp, out) -> dict:
        return {"passed": out["report"]["passed"]}

    def check(self, inp, out, round_index: int) -> Outcome:
        outcome = Outcome(attempted=self.attempted(inp))
        checks = out["report"]["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        missing = max(0, self.n_checks - len(checks))
        if failed:
            outcome.errors.append(f"checks failed: {failed}")
        if missing:
            outcome.errors.append(f"{len(checks)} checks reported, expected {self.n_checks}")
        if out["report"]["passed"] != (not failed and not missing):
            outcome.errors.append(f"report says passed={out['report']['passed']}")
            failed = [c["name"] for c in checks]
        outcome.failed = min(self.n_checks, len(failed) + missing)
        return outcome


WORKLOADS = {w.name: w for w in (CompareDesk(), QuadraticTrace(), RobustWide(), VerifySuite())}
