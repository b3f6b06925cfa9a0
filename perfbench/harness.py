"""Closed-loop timing of ``StiefelSolver.solve``, output checks, and the environment record.

One client runs solves back to back: each solve starts when the previous one
returns.  A pass solves every instance of the workload once; the loop makes
at least one full pass and keeps cycling through the instances until the
run's time is used up.

Every solve and every iteration is timed twice: by the wall clock and by the
CPU time of this process.  The metrics in BENCHMARK.json use the CPU time.
On a virtual machine with a few cores of a shared host the wall clock also
counts the time the host gives this machine's cores to others (steal time)
and the time other processes hold the core, which varies from run to run;
the CPU time counts neither.  With BLAS pinned to one thread the solver's
work runs on this process's one thread, so on an idle machine the two
agree (the report prints the wall-clock figures next to them).
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy
import scipy

import tracing

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles considered for the "highest percentile" line, in order.
TAIL_LADDER = (90.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    order statistics, as ``numpy.percentile`` computes it by default."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_needed(q: float) -> int:
    """Smallest sample count with at least :data:`MIN_TAIL_SAMPLES` beyond ``q``."""
    return math.ceil(round(100.0 * MIN_TAIL_SAMPLES / (100.0 - q), 6))


def highest_percentile(n: int) -> float | None:
    """Highest tail percentile of :data:`TAIL_LADDER` that ``n`` samples support."""
    supported = [q for q in TAIL_LADDER if n >= samples_needed(q)]
    return supported[-1] if supported else None


@dataclass
class Outcome:
    """One solve: wall and CPU time, per-iteration times, counts, and what was wrong."""

    solve_s: float
    cpu_s: float
    iter_ms: list[float] = field(default_factory=list)
    iter_cpu_ms: list[float] = field(default_factory=list)
    counts: tuple[int, int, int] | None = None  # (nitr, nfe, nge)
    error: str | None = None


def run_solve(solve, workload, problem, x0, objective=None) -> Outcome:
    """Time ``solve(objective or problem, x0, callback=...)`` and check its output.

    Per-iteration times are the gaps between successive ``callback(k, x_k)``
    timestamps.  An exception inside the solve is recorded, not raised.
    """
    stamps: list[float] = []
    cpu_stamps: list[float] = []

    def callback(k, x):
        stamps.append(perf_counter())
        cpu_stamps.append(process_time())

    start, cpu_start = perf_counter(), process_time()
    try:
        report = solve(problem if objective is None else objective, x0, callback=callback)
    except Exception as err:  # a failing solve is counted, the run goes on
        return Outcome(
            perf_counter() - start, process_time() - cpu_start, error=f"{type(err).__name__}: {err}"
        )
    elapsed, cpu = perf_counter() - start, process_time() - cpu_start
    counts = (report.nitr, report.nfe, report.nge)
    return Outcome(
        elapsed, cpu, gaps_ms(stamps), gaps_ms(cpu_stamps), counts, workload.check(problem, report)
    )


def gaps_ms(stamps) -> list[float]:
    """Milliseconds between successive timestamps given in seconds."""
    return [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


def closed_loop(solver, workload, instances, seconds: float, after_first=None) -> list[Outcome]:
    """Solve the instances in turn until ``seconds`` have passed, at least one
    pass.  ``after_first(i)`` is called after the first solve of instance ``i``."""
    outcomes = []
    deadline = perf_counter() + seconds
    while len(outcomes) < len(instances) or perf_counter() < deadline:
        i = len(outcomes) % len(instances)
        outcomes.append(run_solve(solver.solve, workload, *instances[i]))
        if after_first is not None and len(outcomes) <= len(instances):
            after_first(i)
    return outcomes


def timed_build(workload, seed: int, setup_times: list[float]):
    """``workload.build(seed)``, with its CPU time appended to ``setup_times``."""
    start = process_time()
    built = workload.build(seed)
    setup_times.append(process_time() - start)
    return built


def paired_traced_loop(solver, workload, instances, seconds: float, tracer):
    """Full passes in which each instance is solved untraced, then traced.

    Returns ``(untraced, traced)`` outcome lists; the pairing makes the
    tracing overhead a same-instance, same-moment comparison.
    """
    plain, traced = [], []
    solve = tracer.wrap(tracing.ROOT, solver.solve)
    deadline = perf_counter() + seconds
    while not plain or perf_counter() < deadline:
        for problem, x0 in instances:
            plain.append(run_solve(solver.solve, workload, problem, x0))
            tracer.solve += 1
            with tracer.installed():
                traced.append(
                    run_solve(solve, workload, problem, x0, tracer.traced_objective(problem))
                )
    return plain, traced


def traced_run(solver, workload, instances, seconds: float, span_file):
    """Paired untraced/traced passes; returns the outcomes, the per-layer
    metric values, a note per metric, and extra report lines."""
    tracer = tracing.Tracer()
    plain, traced = paired_traced_loop(solver, workload, instances, seconds, tracer)
    overhead = (
        percentile([o.cpu_s for o in traced], 50.0) / percentile([o.cpu_s for o in plain], 50.0)
        - 1.0
    )
    values = tracing.layer_metrics(tracer, len(traced), overhead)
    tracer.write(span_file)
    notes = {name: f"moves {e2e} on {where}" for name, (e2e, where) in tracing.PREDICTIONS.items()}
    lines = [
        f"traced {len(traced)} solves, {len(tracer.spans)} spans written to {span_file}",
        "absent wrap points: " + (", ".join(sorted(tracer.absent)) or "none"),
        "counts and times are means per traced solve; ratios are over all traced calls",
    ]
    return plain + traced, values, notes, lines


def first_pass_counts(outcomes, per_pass: int) -> tuple[int, int, int]:
    """Totals of ``(nitr, nfe, nge)`` over the first ``per_pass`` solves."""
    done = [o.counts for o in outcomes[:per_pass] if o.counts is not None]
    return tuple(sum(c[i] for c in done) for i in range(3))


def repeat_mismatches(outcomes, per_pass: int) -> int:
    """Solves of later passes whose counts differ from the same instance's first solve."""
    return sum(
        1
        for i, o in enumerate(outcomes[per_pass:], start=per_pass)
        if o.counts != outcomes[i % per_pass].counts
    )


def fail_frac(outcomes) -> float:
    """Share of attempted solves that raised or failed their output check."""
    return sum(o.error is not None for o in outcomes) / len(outcomes)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def instance_medians(outcomes, per_pass: int, time_of) -> list[float]:
    """Median of ``time_of(outcome)`` over each instance's solves; solve ``i``
    of the loop is instance ``i % per_pass``."""
    by_instance: list[list[float]] = [[] for _ in range(per_pass)]
    for i, o in enumerate(outcomes):
        if o.counts is not None:
            by_instance[i % per_pass].append(time_of(o))
    return [percentile(times, 50.0) for times in by_instance if times]


def end_to_end(outcomes, per_pass: int, setup_times) -> tuple[dict, dict, list[str]]:
    """End-to-end metric values, a note per metric, and extra report lines.

    The solve and iteration metrics are CPU times; the report lines give the
    wall-clock figures.  ``solve_cpu_s_p50`` is the median over the instances
    of each instance's median solve time, so that the instances a run solves
    again at the end do not weigh more than the others.  Per iteration the
    mean is reported next to the 90th percentile: on wopp-wide about 30% of
    the iterations take the retraction's fast path and run in about half the
    time of the rest, so the median sits on the flank of one of the two modes
    and jumps with the mix, while the mean moves in proportion to it.
    """
    done = [o for o in outcomes if o.counts is not None]
    solve_s = instance_medians(outcomes, per_pass, lambda o: o.cpu_s)
    wall_solve_s = instance_medians(outcomes, per_pass, lambda o: o.solve_s)
    iter_ms = [t for o in done for t in o.iter_cpu_ms]
    wall_iter_ms = [t for o in done for t in o.iter_ms]
    nitr, nfe, nge = first_pass_counts(outcomes, per_pass)
    tail = highest_percentile(len(iter_ms))
    values = {
        "solve_cpu_s_p50": percentile(solve_s, 50.0),
        "iter_cpu_ms_mean": sum(iter_ms) / len(iter_ms) if iter_ms else math.nan,
        "iter_cpu_ms_p90": percentile(iter_ms, 90.0),
        "setup_s": percentile(setup_times, 50.0),
        "nitr": nitr,
        "nfe": nfe,
        "nge": nge,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "solve_cpu_s_p50": f"CPU time, {len(done)} solves of {len(solve_s)} instances",
        "iter_cpu_ms_mean": f"CPU time, n={len(iter_ms)} iterations",
        "iter_cpu_ms_p90": (
            f"CPU time, n={len(iter_ms)} iterations; highest percentile with >= "
            f"{MIN_TAIL_SAMPLES} samples beyond it: "
            + (f"p{tail:g} = {percentile(iter_ms, tail):.4f} ms" if tail else "none")
        ),
        "setup_s": f"median CPU time to set up one instance, over {len(setup_times)} set-ups",
        "nitr": f"total over one pass of {per_pass} instances",
        "nfe": f"total over one pass of {per_pass} instances",
        "nge": f"total over one pass of {per_pass} instances",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [
        f"fail_frac {fail_frac(outcomes):.4f} ratio "
        f"({sum(o.error is not None for o in outcomes)} of {len(outcomes)} solves)",
        f"count repeats: {repeat_mismatches(outcomes, per_pass)} later-pass solves "
        f"differ from the first pass",
        f"iter_cpu_ms_p50 {percentile(iter_ms, 50.0)} ms (CPU time, n={len(iter_ms)} iterations)",
        f"solve_s_p50 {percentile(wall_solve_s, 50.0)} s (wall clock, {len(wall_solve_s)} instances)",
        f"iter_ms_p50 {percentile(wall_iter_ms, 50.0)} ms (wall clock, n={len(wall_iter_ms)} iterations)",
        f"iter_ms_p90 {percentile(wall_iter_ms, 90.0)} ms (wall clock, n={len(wall_iter_ms)} iterations)",
    ]
    return values, notes, lines


# -- environment record -----------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln and ".so" in ln})
    out = {}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[Path(lib_path).name] = int(fn())
                break
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, package) -> dict:
    """Versions, thread counts and code location this run measured."""

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy.show_config),
        "scipy_blas": blas_version(scipy.show_config),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(root),
        "stiefelopt": str(Path(package.__file__).resolve()),
    }
