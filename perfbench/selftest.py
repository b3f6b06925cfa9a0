"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
for entry in (str(CHECKOUT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import stiefelopt  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _small_eig(seed=0, n=30, p=3):
    rng = np.random.default_rng(seed)
    problem = stiefelopt.EigProblem.generate(n, p, rng=rng)
    return problem, stiefelopt.random_orthonormal(n, p, rng)


SMALL = Workload(
    name="small-eig",
    instances=2,
    solver_params={},
    build=_small_eig,
    oracle=WORKLOADS["eig-monotone"].oracle,
)


# -- percentiles and the sample-count rule -----------------------------------


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 100, 101):
        data = list(rng.exponential(size=size))
        for q in (0.0, 10.0, 50.0, 90.0, 99.0, 100.0):
            assert harness.percentile(data, q) == pytest.approx(np.percentile(data, q), rel=1e-12)
    assert math.isnan(harness.percentile([], 50.0))


def test_solve_median_weighs_each_instance_once():
    # Two instances solved in turn; the run ends after instance 0's third solve.
    times = [1.0, 5.0, 1.2, 5.0, 1.1]
    outcomes = [harness.Outcome(t, t, [1.0], [t], (1, 1, 1)) for t in times]
    assert harness.instance_medians(outcomes, 2, lambda o: o.cpu_s) == [1.1, 5.0]
    values, _, _ = harness.end_to_end(outcomes, 2, [0.1])
    assert values["solve_cpu_s_p50"] == pytest.approx(3.05)
    assert values["iter_cpu_ms_mean"] == pytest.approx(sum(times) / len(times))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.samples_needed(90.0) == 100
    assert harness.samples_needed(99.0) == 1000
    assert harness.samples_needed(99.9) == 10000
    assert harness.highest_percentile(99) is None
    assert harness.highest_percentile(100) == 90.0
    assert harness.highest_percentile(999) == 90.0
    assert harness.highest_percentile(1000) == 99.0
    assert harness.highest_percentile(10**6) == 99.9


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent, solve=0):
    return [name, start, end, parent, solve]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: the union counts [1, 5] once
        _span("c", 7.0, 8.0, 0),
        _span("c.child", 7.2, 7.9, 3),  # a grandchild does not count for root
        _span("d", 9.5, 12.0, 0),  # only the part inside root counts
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0 - 0.7)
    assert own[4] == pytest.approx(0.7)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (1, 2), (5, 6)]) == pytest.approx(3.0)
    assert tracing.union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)


# -- failures are counted, not raised -----------------------------------------


def test_nan_gradient_partway_counts_as_a_failure():
    problem, x0 = _small_eig()
    calls = {"n": 0}

    def grad(x):
        calls["n"] += 1
        return np.full(x.shape, np.nan) if calls["n"] == 4 else problem.gradient(x)

    bad = stiefelopt.CallableObjective(fun=problem.value, grad=grad, shape=problem.shape)
    solver = stiefelopt.StiefelSolver()
    good = harness.run_solve(solver.solve, SMALL, problem, x0)
    broken = harness.run_solve(solver.solve, SMALL, problem, x0, objective=bad)
    assert calls["n"] == 4, "the solve should stop at the bad gradient"
    assert good.error is None and good.counts is not None
    assert broken.error is not None and broken.counts is None
    assert harness.fail_frac([good, broken]) == 0.5
    values, _, lines = harness.end_to_end([good, broken], 2, [0.1])
    assert any(line.startswith("fail_frac 0.5000") for line in lines)
    assert values["nitr"] == good.counts[0]


def test_check_rejects_infeasible_and_unconverged_reports():
    problem, x0 = _small_eig()
    report = stiefelopt.StiefelSolver().solve(problem, x0)
    assert SMALL.check(problem, report) is None

    bent = SimpleNamespace(x=report.x * (1.0 + 1e-9), termination=report.termination)
    stopped = SimpleNamespace(x=report.x, termination="MaxIters")
    assert "feasibility" in SMALL.check(problem, bent)
    assert "termination" in SMALL.check(problem, stopped)


def test_energy_oracle_matches_the_library_and_checks_by_termination():
    n, k = 40, 3
    problem = stiefelopt.EnergyProblem(n, k, mu=1.0)
    x = stiefelopt.random_orthonormal(n, k, np.random.default_rng(5))
    assert workloads.energy_value(x, 1.0) == pytest.approx(problem.value(x), rel=1e-12)
    assert np.allclose(workloads.energy_gradient(x, 1.0), problem.gradient(x), rtol=1e-12, atol=1e-12)

    # Far from the minimum: the value check fails whatever the termination.
    check = WORKLOADS["energy-tall"].oracle
    assert "energy" in check(problem, x, "RelChange")
    # At the minimum value, only a GradTol claim is held to the residual bound.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "ENERGY_MIN", workloads.energy_value(x, 1.0))
        assert check(problem, x, "RelChange") is None
        assert "GradTol" in check(problem, x, "GradTol")


# -- tracing -------------------------------------------------------------------


def test_traced_solve_matches_report_counts_and_restores_wrappers(monkeypatch):
    monkeypatch.setitem(tracing.WRAP_POINTS, "gone.layer", ("stiefelopt.solver", "no_such_name"))
    problem, x0 = _small_eig()
    solver = stiefelopt.StiefelSolver(mode="monotone", step_init="bb")
    tracer = tracing.Tracer()
    plain, traced = harness.paired_traced_loop(solver, SMALL, [(problem, x0)], 0.0, tracer)
    assert len(plain) == len(traced) == 1
    assert traced[0].error is None and traced[0].counts == plain[0].counts
    nitr, nfe, nge = traced[0].counts
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert tracer.absent == {"gone.layer"}
    assert metrics["problems.value.calls"] == nfe
    assert metrics["problems.gradient.calls"] == nge
    assert metrics["directions.split.calls"] == nge
    assert metrics["linesearch.backtrack.calls"] == nitr
    assert metrics["linesearch.trials_per_call"] == pytest.approx((nfe - 1) / nitr)
    n, p = problem.shape
    assert metrics["directions.split.out_mb"] == pytest.approx(8 * (2 * n * p + n * n) / 1e6)
    assert stiefelopt.solver.gradient_split is stiefelopt.directions.gradient_split
    assert not hasattr(stiefelopt.linalg.as_matrix, "__wrapped__")
    assert all(span[4] == 0 for span in tracer.spans)


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_records_workloads_metrics_and_predictions():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"].strip() for w in spec["workloads"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in end_to_end
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PREDICTIONS)
    for metric, where in tracing.PREDICTIONS.values():
        assert metric in end_to_end
        assert where in WORKLOADS or where == "every workload"
    values, notes, _ = harness.end_to_end([harness.Outcome(1.0, 1.0, [1.0], [1.0], (1, 1, 1))], 1, [0.1])
    assert set(values) == set(notes) == end_to_end


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
