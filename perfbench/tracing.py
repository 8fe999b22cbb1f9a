"""Spans recorded from outside momex, and the per-layer metrics built from them.

The program looks up its collaborators by module attribute at call time
(`optimizer.run` calls `draw_sample`, `params_for`, `stochastic_grad` and
`mem_step` through its module globals; `harness.run_experiment` calls
`build_problem` and `run`; `harness.compare` calls `run_experiment` on a
4-thread pool; `harness.verify_all` calls verify's checks on another, and
they call verify's sweeps and the schedule).
`Tracer.installed` swaps each of those attributes for a timing wrapper for
the length of one operation and puts the originals back afterwards. The
value and gradient callables of every problem the program builds are
wrapped too, so exact gradients are timed whether the oracle or the metric
logging asks for them.

Each span keeps its name, start, end, thread and parent span. Parents are
tracked per thread, so the work compare and verify_all hand to their pool
threads nests correctly; a span's self time is its duration less the
durations of its children, which always live on the same thread. Spans
are kept in per-thread arrays (28 bytes a span) and written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from array import array

import numpy as np

# (module, attribute) -> span name. The names group into the package's
# modules: schedule, problems, optimizer, harness and verify.
SPANS = {
    ("optimizer", "params_for"): "schedule.bundle",
    ("verify", "params_general"): "schedule.bundle",
    ("verify", "params_p3"): "schedule.bundle",
    ("optimizer", "draw_sample"): "problems.draw",
    ("optimizer", "stochastic_grad"): "problems.oracle",
    ("verify", "stochastic_grad"): "problems.oracle",
    ("optimizer", "mem_step"): "optimizer.step",
    ("optimizer", "sg_step"): "optimizer.step",
    ("optimizer", "sgpm_step"): "optimizer.step",
    ("optimizer", "nigt_step"): "optimizer.step",
    ("optimizer", "run"): "optimizer.run",
    ("harness", "run"): "optimizer.run",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("harness", "build_problem"): "harness.build_problem",
    ("harness", "records_to_csv"): "harness.records_to_csv",
    ("harness", "verify_all"): "harness.verify_all",
    ("harness", "compare"): "harness.compare",
    ("verify", "schedule_cross_check"): "verify.cross_check",
    ("verify", "weight_residual_sweep"): "verify.residual_sweep",
    ("verify", "dense_agreement_sweep"): "verify.dense_sweep",
    ("verify", "sum_identity_check"): "verify.sum_check",
    ("verify", "sum_identity_sweep"): "verify.sum_sweep",
    ("verify", "bound_sweep"): "verify.bound_sweep",
    ("verify", "p3_consistency_check"): "verify.p3_consistency",
    ("verify", "gradient_check"): "verify.gradient_check",
    ("verify", "taylor_remainder_check"): "verify.taylor_check",
    ("verify", "noise_unbiasedness_check"): "verify.noise_check",
    ("verify", "noise_moment_check"): "verify.noise_check",
    ("verify", "smoothness_ratio_check"): "verify.noise_check",
}

# Problem constructors that harness.build_problem looks up at call time.
PROBLEM_FACTORIES = ("datafit_problem", "robust_problem", "quadratic_problem")

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "schedule.bundles": "count",
    "schedule.bundle_us": "us",
    "problems.draws": "count",
    "problems.draw_us": "us",
    "problems.oracle_calls": "count",
    "problems.oracle_us": "us",
    "problems.grad_calls": "count",
    "problems.grad_us": "us",
    "problems.grad_bytes": "B",
    "problems.grad_gbps": "GB/s",
    "problems.value_calls": "count",
    "problems.value_us": "us",
    "optimizer.steps": "count",
    "optimizer.step_us": "us",
    "optimizer.log_rows": "count",
    "optimizer.metric_grad_evals": "count",
    "optimizer.log_us": "us",
    "optimizer.run_self_us": "us",
    "harness.runs": "count",
    "harness.run_busy_s": "s",
    "harness.pool_concurrency": "ratio",
    "harness.build_s": "s",
    "harness.csv_rows": "count",
    "harness.csv_s": "s",
    "verify.checks": "count",
    "verify.dense_sweep_s": "s",
    "verify.residual_sweep_s": "s",
    "verify.sum_sweep_s": "s",
    "verify.bound_sweep_s": "s",
    "verify.p3_consistency_s": "s",
    "verify.gradient_checks_s": "s",
    "verify.taylor_checks_s": "s",
    "verify.noise_checks_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def gradient_bytes(problem, dataset=None) -> int:
    """Bytes one exact gradient reads and writes, computed from array sizes.

    Data problems pass over the m x n matrix twice (A and its transpose);
    the quadratic reads its eigenvalues and the point. Input and output
    vectors count once each; elementwise temporaries are left out.
    """
    n = problem.dim
    if dataset is None:
        return 8 * 3 * n
    m = dataset.features.shape[0]
    return 8 * (2 * m * n + 2 * n)


class _Buffer:
    __slots__ = ("thread", "name", "start", "end", "parent", "stack")

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []


class Tracer:
    """Collects spans from wrapped callables; one instance per run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._bytes = {}
        self._buffers = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main_thread = threading.get_ident()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _new_buffer(self) -> _Buffer:
        buf = _Buffer(threading.get_ident())
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def wrap(self, name: str, fn):
        nid = self._id(name)
        local = self._local
        new_buffer = self._new_buffer
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def trace_problem(self, problem, dataset=None):
        """A copy of problem whose value and gradient record spans."""
        nbytes = gradient_bytes(problem, dataset)
        name = f"problems.grad[{problem.name}:{nbytes}B]"
        self._bytes[self._id(name)] = nbytes
        return dataclasses.replace(
            problem,
            value=self.wrap("problems.value", problem.value),
            gradient=self.wrap(name, problem.gradient),
        )

    def _factory(self, fn):
        def build(*args, **kwargs):
            dataset = args[0] if args and hasattr(args[0], "features") else None
            return self.trace_problem(fn(*args, **kwargs), dataset)

        return build

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every entry point in SPANS, and every problem factory, for
        the body of the with-statement."""
        saved = []
        patches = [(getattr(modules, mod), attr, span) for (mod, attr), span in SPANS.items()]
        try:
            for module, attr, span in patches:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span, getattr(module, attr)))
            for attr in PROBLEM_FACTORIES:
                h = modules.harness
                saved.append((h, attr, getattr(h, attr)))
                setattr(h, attr, self._factory(getattr(h, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """All spans as numpy arrays (parent indices are global)."""
        parts = []
        offset = 0
        for buf in self._buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts.append(
                (
                    np.frombuffer(buf.name, dtype=np.int32),
                    np.frombuffer(buf.start, dtype=np.float64),
                    np.frombuffer(buf.end, dtype=np.float64),
                    parent,
                    np.full(n, buf.thread, dtype=np.int64),
                )
            )
            offset += n
        return tuple(np.concatenate(cols) for cols in zip(*parts))

    def save(self, path, rounds) -> None:
        name, start, end, parent, thread = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            thread=thread,
            main_thread=np.int64(self.main_thread),
            rounds=np.array(rounds, dtype=float).reshape(-1, 2),
        )

    def layer_metrics(self, rounds, counts) -> dict:
        """Per-layer metrics per traced round (counts and seconds) or per
        call (microseconds), from the spans and the workload's own counts."""
        name, start, end, parent, thread = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_t = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def is_(*span_names):
            wanted = [ids[s] for s in span_names if s in ids]
            return np.isin(name, wanted)

        grad_ids = [i for i, n in enumerate(self.names) if n.startswith("problems.grad[")]
        grad = np.isin(name, grad_ids)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        parent_is_run = np.isin(parent_name, [ids.get("optimizer.run", -2)])
        step = is_("optimizer.step")
        outer_step = step & ~np.isin(parent_name, [ids.get("optimizer.step", -2)])

        n_rounds = max(len(rounds), 1)
        per_round = lambda x: float(x) / n_rounds
        per_call = lambda total, calls: 1e6 * float(total) / calls if calls else 0.0
        share = lambda a, b: float(a) / float(b) if b else 0.0

        def calls_and_us(mask):
            c = int(mask.sum())
            return per_round(c), per_call(self_t[mask].sum(), c)

        bundle = calls_and_us(is_("schedule.bundle"))
        draw = calls_and_us(is_("problems.draw"))
        oracle = calls_and_us(is_("problems.oracle"))
        grads = calls_and_us(grad)
        values = calls_and_us(is_("problems.value"))
        grad_bytes = float(sum(self._bytes[i] * int((name == i).sum()) for i in grad_ids))
        n_grads = int(grad.sum())
        steps = int(outer_step.sum())
        run = is_("optimizer.run")
        log_grads = grad & parent_is_run
        log_values = is_("problems.value") & parent_is_run
        # each run also evaluates f(x0) once before its first row
        log_rows = int(log_values.sum()) - int(run.sum())
        rx = is_("harness.run_experiment")
        pooled = is_("harness.compare", "harness.verify_all")
        # the roots on other threads than the caller's are the pool's work
        pool_root = ~has_parent & (thread != self.main_thread)

        def self_s(*span_names):
            return per_round(self_t[is_(*span_names)].sum())

        out = {
            "schedule.bundles": bundle[0],
            "schedule.bundle_us": bundle[1],
            "problems.draws": draw[0],
            "problems.draw_us": draw[1],
            "problems.oracle_calls": oracle[0],
            "problems.oracle_us": oracle[1],
            "problems.grad_calls": grads[0],
            "problems.grad_us": grads[1],
            "problems.grad_bytes": share(grad_bytes, n_grads),
            "problems.grad_gbps": share(grad_bytes, self_t[grad].sum()) / 1e9,
            "problems.value_calls": values[0],
            "problems.value_us": values[1],
            "optimizer.steps": per_round(steps),
            "optimizer.step_us": per_call(self_t[step].sum(), steps),
            "optimizer.log_rows": per_round(log_rows),
            "optimizer.metric_grad_evals": per_round(log_grads.sum()),
            "optimizer.log_us": per_call(dur[log_grads | log_values].sum(), log_rows),
            "optimizer.run_self_us": per_call(self_t[run].sum(), steps),
            "harness.runs": per_round(rx.sum()),
            "harness.run_busy_s": per_round(dur[rx].sum()),
            "harness.pool_concurrency": share(dur[pool_root].sum(), dur[pooled].sum()),
            "harness.build_s": per_round(dur[is_("harness.build_problem")].sum()),
            "harness.csv_rows": per_round(counts.get("harness.csv_rows", 0)),
            "harness.csv_s": per_round(dur[is_("harness.records_to_csv")].sum()),
            "verify.checks": per_round(counts.get("verify.checks", 0)),
            "verify.dense_sweep_s": self_s("verify.dense_sweep"),
            "verify.residual_sweep_s": self_s("verify.residual_sweep"),
            "verify.sum_sweep_s": self_s("verify.sum_sweep"),
            "verify.bound_sweep_s": self_s("verify.bound_sweep"),
            "verify.p3_consistency_s": self_s("verify.p3_consistency"),
            "verify.gradient_checks_s": self_s("verify.gradient_check"),
            "verify.taylor_checks_s": self_s("verify.taylor_check"),
            "verify.noise_checks_s": self_s("verify.noise_check"),
            "trace.spans": per_round(name.size),
        }
        # wall time of each traced round that no main-thread span covers;
        # spans on one thread nest, so the roots do not overlap
        main_root = ~has_parent & (thread == self.main_thread)
        uncovered = []
        for t0, t1 in rounds:
            inside = main_root & (start >= t0) & (end <= t1)
            uncovered.append((t1 - t0) - float(dur[inside].sum()))
        out["trace.uncovered_s"] = per_round(sum(uncovered))
        return out
