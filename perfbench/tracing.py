"""Spans around the calls into each layer of ``stiefelopt``, and the per-layer metrics.

A span is recorded for every call into a wrapped public function.  The
wrapper is installed in the namespace the caller looks the name up in (for
example ``stiefelopt.solver.gradient_split``), so the library itself is not
changed.  Spans are kept in memory as ``[name, start, end, parent, solve]``
and written out when the run ends.

A wrapped name that no longer exists is reported as absent: its layer shows
0 calls and its time stays in the parent's self time.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

#: Span name -> (module whose namespace the caller looks the name up in, attribute).
WRAP_POINTS = {
    "directions.split": ("stiefelopt.solver", "gradient_split"),
    "manifold.retract": ("stiefelopt.linesearch", "retract"),
    "manifold.project": ("stiefelopt.manifold", "project"),
    "linesearch.backtrack": ("stiefelopt.solver", "backtrack"),
    "linesearch.bb": ("stiefelopt.solver", "bb_steps"),
    "linesearch.clamp": ("stiefelopt.solver", "clamp_step"),
    "solver.stopping": ("stiefelopt.solver", "stopping_check"),
}

#: ``as_matrix`` is wrapped in every ``stiefelopt`` namespace that imports it.
AS_MATRIX = "linalg.as_matrix"

ROOT = "solver.solve"

#: Per-layer metric -> (end-to-end metric it should move, workload where it
#: should move it).  Written down before measuring; ``selftest.py`` checks
#: that BENCHMARK.json lists exactly these metrics.
PREDICTIONS = {
    "problems.value.calls": ("solve_cpu_s_p50", "eig-monotone"),
    "problems.value.ms": ("solve_cpu_s_p50", "eig-monotone"),
    "problems.gradient.calls": ("solve_cpu_s_p50", "eig-monotone"),
    "problems.gradient.ms": ("solve_cpu_s_p50", "eig-monotone"),
    "directions.split.calls": ("iter_cpu_ms_mean", "energy-tall"),
    "directions.split.ms": ("iter_cpu_ms_mean", "energy-tall"),
    "directions.split.out_mb": ("peak_rss_mb", "energy-tall"),
    "manifold.retract.calls": ("iter_cpu_ms_mean", "wopp-wide"),
    "manifold.retract.ms": ("iter_cpu_ms_mean", "wopp-wide"),
    "manifold.project.calls": ("iter_cpu_ms_mean", "wopp-wide"),
    "manifold.project.ms": ("iter_cpu_ms_mean", "wopp-wide"),
    "manifold.fastpath_ratio": ("iter_cpu_ms_mean", "wopp-wide"),
    "manifold.rank_retries": ("iter_cpu_ms_mean", "wopp-wide"),
    "linesearch.backtrack.calls": ("nfe", "eig-monotone"),
    "linesearch.backtrack.self_ms": ("solve_cpu_s_p50", "eig-monotone"),
    "linesearch.trials_per_call": ("nfe", "eig-monotone"),
    "linesearch.failures": ("nfe", "eig-monotone"),
    "linesearch.bb.calls": ("nfe", "eig-monotone"),
    "linesearch.bb.ms": ("solve_cpu_s_p50", "eig-monotone"),
    "linesearch.bb_clamps": ("nfe", "eig-monotone"),
    "solver.self_ms": ("iter_cpu_ms_mean", "energy-tall"),
    "solver.stopping.calls": ("iter_cpu_ms_mean", "energy-tall"),
    "solver.stopping.ms": ("iter_cpu_ms_mean", "energy-tall"),
    "linalg.as_matrix.calls": ("iter_cpu_ms_mean", "energy-tall"),
    "linalg.as_matrix.ms": ("iter_cpu_ms_mean", "energy-tall"),
    "trace.overhead_frac": ("solve_cpu_s_p50", "every workload"),
}


def array_bytes(obj) -> int:
    """Bytes of the arrays held by ``obj`` (an array, a sequence of them, or
    an object's attributes), computed from their shapes and dtypes."""
    if isinstance(obj, np.ndarray):
        return obj.size * obj.itemsize
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return 0
    return sum(v.size * v.itemsize for v in fields.values() if isinstance(v, np.ndarray))


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception class name)
        self.absent: set[str] = set()
        self.solve = -1
        self._stack: list[int] = []
        self._origin = perf_counter()

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span ``name`` per call; ``on_result(args, out)``
        updates counters after a call that returned."""

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.solve]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                self.errors[name, type(err).__name__] += 1
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters fed from call results ---------------------------------------

    def _count_split(self, args, out):
        self.counts["split_bytes"] += array_bytes(out)

    def _count_retract(self, args, out):
        if isinstance(out, tuple) and len(out) > 1 and out[1] is True:
            self.counts["fastpath"] += 1

    def _count_clamp(self, args, out):
        if args and out != args[0]:
            self.counts["bb_clamps"] += 1

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        hooks = {
            "directions.split": self._count_split,
            "manifold.retract": self._count_retract,
            "linesearch.clamp": self._count_clamp,
        }
        patched = []
        for name, (module_name, attr) in WRAP_POINTS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hooks.get(name)))
        linalg = importlib.import_module("stiefelopt.linalg")
        original = getattr(linalg, "as_matrix", None)
        if original is None:
            self.absent.add(AS_MATRIX)
        else:
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "stiefelopt" and getattr(module, "as_matrix", None) is original:
                    patched.append((module, "as_matrix", original))
                    setattr(module, "as_matrix", self.wrap(AS_MATRIX, original))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def traced_objective(self, problem):
        """A proxy implementing the ``Objective`` protocol, with a span per call."""
        return SimpleNamespace(
            shape=problem.shape,
            name=getattr(problem, "name", ""),
            value=self.wrap("problems.value", problem.value),
            gradient=self.wrap("problems.gradient", problem.gradient),
        )

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("solve,name,start_s,end_s,parent\n")
            for name, start, end, parent, solve in self.spans:
                fh.write(f"{solve},{name},{start - self._origin:.9f},{end - self._origin:.9f},{parent}\n")


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - union_length(clipped))
    return out


def layer_metrics(tracer: Tracer, solves: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics: counts and times are means per traced solve, ratios
    are taken over all traced calls."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    backtrack_trials = 0
    spans = tracer.spans
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, parent, _ = span
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if name == "problems.value" and parent >= 0 and spans[parent][0] == "linesearch.backtrack":
            backtrack_trials += 1

    def per_solve(x):
        return x / solves

    def ms(name):
        return per_solve(1e3 * total[name])

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "problems.value.calls": per_solve(calls["problems.value"]),
        "problems.value.ms": ms("problems.value"),
        "problems.gradient.calls": per_solve(calls["problems.gradient"]),
        "problems.gradient.ms": ms("problems.gradient"),
        "directions.split.calls": per_solve(calls["directions.split"]),
        "directions.split.ms": ms("directions.split"),
        "directions.split.out_mb": ratio(tracer.counts["split_bytes"] / 1e6, calls["directions.split"]),
        "manifold.retract.calls": per_solve(calls["manifold.retract"]),
        "manifold.retract.ms": ms("manifold.retract"),
        "manifold.project.calls": per_solve(calls["manifold.project"]),
        "manifold.project.ms": ms("manifold.project"),
        "manifold.fastpath_ratio": ratio(tracer.counts["fastpath"], calls["manifold.retract"]),
        "manifold.rank_retries": per_solve(tracer.errors["manifold.project", "RankDeficientError"]),
        "linesearch.backtrack.calls": per_solve(calls["linesearch.backtrack"]),
        "linesearch.backtrack.self_ms": per_solve(1e3 * own["linesearch.backtrack"]),
        "linesearch.trials_per_call": ratio(backtrack_trials, calls["linesearch.backtrack"]),
        "linesearch.failures": per_solve(
            sum(n for (name, _), n in tracer.errors.items() if name == "linesearch.backtrack")
        ),
        "linesearch.bb.calls": per_solve(calls["linesearch.bb"]),
        "linesearch.bb.ms": ms("linesearch.bb"),
        "linesearch.bb_clamps": per_solve(tracer.counts["bb_clamps"]),
        "solver.self_ms": per_solve(1e3 * own[ROOT]),
        "solver.stopping.calls": per_solve(calls["solver.stopping"]),
        "solver.stopping.ms": ms("solver.stopping"),
        "linalg.as_matrix.calls": per_solve(calls[AS_MATRIX]),
        "linalg.as_matrix.ms": ms(AS_MATRIX),
        "trace.overhead_frac": overhead_frac,
    }
