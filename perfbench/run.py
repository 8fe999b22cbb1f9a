"""Benchmark of momex: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; momex is imported from its src/ directory.
A run sets the workload up several times (a fresh import of momex plus the
inputs) and reports the median, then repeats whole rounds of the workload's
operation for S seconds, checking every round's output. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it spends the first half of
the time untraced and the rest traced, and prints the per-layer metrics.
The last line of standard output is the result as one JSON object; the
line before it records the host. Result and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 9


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def find_src() -> Path:
    src = ROOT / "src"
    if not (src / "momex" / "__init__.py").is_file():
        raise SystemExit(f"error: momex sources not found under {src}; run from a checkout")
    return src


def measure(workload, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One benchmark run: (result, report, tracer or None, traced rounds)."""
    import numpy  # noqa: F401  (numpy's import is not momex's set-up cost)

    import tracing
    import workloads

    spec = workloads.SIZES[size]
    setup_s = []
    for _ in range(SETUPS):
        # drop the last set-up's inputs first, so that memory never holds two
        m = inputs = None
        gc.collect()
        t0 = time.perf_counter()
        m = workloads.load_momex()
        inputs = workload.setup(m, seed, spec)
        setup_s.append(time.perf_counter() - t0)
    if not str(Path(m.harness.__file__).resolve()).startswith(str(find_src())):
        raise SystemExit(f"error: momex was imported from {m.harness.__file__}")

    tracer = tracing.Tracer() if trace else None
    untraced_until = seconds / 2.0 if trace else seconds
    walls, traced_walls, traced_rounds, rates, rss = [], [], [], [], []
    attempted = failed = 0
    correct = True
    errors, reference, counts = [], None, {}
    start = time.perf_counter()
    round_index = raised = 0
    while True:
        elapsed = time.perf_counter() - start
        traced_now = trace and walls and elapsed >= untraced_until
        enough = walls and (not trace or traced_walls)
        if elapsed >= seconds and (enough or (raised and elapsed >= 2 * seconds)):
            break
        gc.collect()
        round_index += 1
        try:
            if traced_now:
                with tracer.installed(m):
                    t0 = time.perf_counter()
                    out = workload.op(inputs, tracer)
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                out = workload.op(inputs)
                t1 = time.perf_counter()
            outcome = workload.check(inputs, out, round_index - 1)
        except Exception:
            # a round that raises fails all its operations; the rest go on
            attempted += workload.attempted(inputs)
            failed += workload.attempted(inputs)
            raised += 1
            errors.append(traceback.format_exc(limit=-3))
            continue
        if traced_now:
            traced_walls.append(t1 - t0)
            traced_rounds.append((t0, t1))
            for key, value in workload.counts(out).items():
                counts[key] = counts.get(key, 0) + value
        else:
            walls.append(t1 - t0)
            rates.append(workload.oracle_calls(out) / (t1 - t0))
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        attempted += outcome.attempted
        failed += outcome.failed
        if outcome.errors:
            correct = False
            errors.extend(outcome.errors[:5])
        reference = workload.reference(inputs, out)
        del out
    if not enough:
        raise SystemExit(f"error: no {workload.name} round completed\n{errors[-1]}")
    # the peak through set-up and the first completed round (checks hold no
    # more memory than the operation): one call's memory, as a user makes it.
    # Later rounds add what the allocator kept from earlier ones, by amounts
    # that vary with how verify_all's threads interleave.
    peak_rss_mib = rss[0]

    if trace:
        metrics = tracer.layer_metrics(traced_rounds, counts)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "oracle_calls_per_s": statistics.median(rates),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {"setup_s": "s", "wall_s": "s", "oracle_calls_per_s": "calls/s", "peak_rss_mib": "MiB"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_facts(),
        "rounds": {"untraced": len(walls), "traced": len(traced_walls)},
        "wall_s": walls,
        "traced_wall_s": traced_walls,
        "setup_s": setup_s,
        "peak_rss_mib_after_round": rss,
        "reference": reference,
        "errors": errors,
    }
    return result, report, tracer, traced_rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", dest="self_test")
    args = ap.parse_args(argv)

    # The whole process runs on one CPU, set before numpy loads so that
    # OpenBLAS starts no second thread. On two CPUs of a shared host, the
    # BLAS thread and verify_all's pool keep both virtual CPUs busy, and a
    # run's time then follows the host's steal time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(find_src()))
    import workloads

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    workload = workloads.WORKLOADS[args.workload]
    result, report, tracer, traced_rounds = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report["result"] = result
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz", traced_rounds)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "host", "rounds", "reference")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
