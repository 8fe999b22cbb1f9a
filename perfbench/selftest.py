"""Self-test of the benchmark: `python3 perfbench/run.py --self-test`.

Runs each workload at its small size through the same checks, untraced and
traced, and confirms that both kinds of run print exactly the metrics that
BENCHMARK.json lists. Then feeds each workload's checks outputs with one
planted fault at a time and confirms that every fault is rejected.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import replace

import run
import workloads

SEED = 11


def _compare_faults(inp, out):
    label = out["labels"][0]
    final = out["final"][label]
    with_final = lambda values: {**out, "final": {**out["final"], label: values}}
    last = out["series"][label][-1]
    moved = [math.nextafter(final[0], math.inf)] + final[1:]
    return {
        "dropped seed": with_final(final[:-1]),
        "non-finite final": with_final([math.nan] + final[1:]),
        # median_final follows the moved value, so only the serial rerun can tell
        "final differs from a serial run": {
            **with_final(moved),
            "median_final": {**out["median_final"], label: statistics.median(moved)},
        },
        "median_final perturbed": {
            **out,
            "median_final": {**out["median_final"], label: math.nextafter(out["median_final"][label], 0.0)},
        },
        "iterations off": {**out, "iterations": {**out["iterations"], label: out["iterations"][label] - 1}},
        "oracle_calls off": {
            **out,
            "series": {**out["series"], label: out["series"][label][:-1] + [{**last, "oracle_calls": last["oracle_calls"] - 1}]},
        },
    }


def _quadratic_faults(inp, out):
    recs = out["records"]
    bad_row = lambda i, **kw: recs[:i] + (replace(recs[i], **kw),) + recs[i + 1:]
    return {
        "grad_norm above the bound": {**out, "records": bad_row(10, grad_norm=recs[10].grad_norm * 10.0)},
        "rel_obj perturbed": {**out, "records": bad_row(5, rel_obj=recs[5].rel_obj * (1.0 + 1e-9))},
        "dropped row": {**out, "records": recs[:-1]},
        "gradient target missed": {**out, "summary": {**out["summary"], "min_grad_norm": 2e-3}},
        "CSV loses its last row": {**out, "csv": out["csv"].rsplit("\n", 2)[0] + "\n"},
    }


def _robust_faults(inp, out):
    last = out.records[-1]
    with_last = lambda r: replace(out, records=out.records[:-1] + (r,))
    state = out.state
    return {
        "grad_norm perturbed": with_last(replace(last, grad_norm=last.grad_norm * (1.0 + 1e-8))),
        "f_val perturbed": with_last(replace(last, f_val=last.f_val * (1.0 - 1e-8))),
        "oracle_calls off": replace(out, state=replace(state, oracle_calls=state.oracle_calls - 1)),
        "last step too long": replace(out, state=replace(state, x_cur=state.x_cur * (1.0 + 1e-6))),
        "zero step": replace(out, state=replace(state, zero_steps=1)),
    }


def _verify_faults(inp, out):
    rep = out["report"]
    checks = rep["checks"]
    return {
        "failed check": {
            **out,
            "report": {**rep, "passed": False, "checks": [{**checks[0], "passed": False}] + checks[1:]},
        },
        "dropped check": {**out, "report": {**rep, "checks": checks[1:]}},
        "passed flag wrong": {
            **out,
            "report": {**rep, "checks": [{**checks[0], "passed": False}] + checks[1:]},
        },
    }


class _FirstRoundRaises(workloads.RobustWide):
    """robust-wide whose first operation raises, as a program fault would."""

    raised = False

    def op(self, inp, tracer=None):
        if not self.raised:
            self.raised = True
            raise RuntimeError("planted fault")
        return super().op(inp, tracer)


FAULTS = {
    "compare-desk": _compare_faults,
    "quadratic-trace": _quadratic_faults,
    "robust-wide": _robust_faults,
    "verify-suite": _verify_faults,
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            result, _, _, _ = run.measure(workload, SEED, 1e-3, bool(trace), size="small")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = result["correct"] and result["failed"] == 0 and got == want[trace]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} passed, "
                  f"metrics {'match' if got == want[trace] else 'DIFFER from'} BENCHMARK.json")
            if not ok:
                problems.append(f"{name} trace={trace}")
        inp = workload.setup(workloads.load_momex(), SEED, workloads.SIZES["small"])
        out = workload.op(inp)
        for fault, bad in FAULTS[name](inp, out).items():
            outcome = workload.check(inp, bad, 0)
            caught = outcome.failed > 0 and bool(outcome.errors)
            print(f"  {'rejects' if caught else 'MISSES '} {fault}: "
                  f"{outcome.failed}/{outcome.attempted} failed; {'; '.join(outcome.errors)[:150]}")
            if not caught:
                problems.append(f"{name}: {fault}")
    result, _, _, _ = run.measure(_FirstRoundRaises(), SEED, 2.0, False, size="small")
    counted = result["failed"] == 1 and result["attempted"] > 1
    print(f"robust-wide with a raising first round: {result['failed']}/{result['attempted']} "
          f"failed, {'counted' if counted else 'NOT counted'}")
    if not counted:
        problems.append("raising round")
    print(json.dumps({"self_test_passed": not problems, "problems": problems}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
