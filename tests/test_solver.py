"""Solver loop: defaults, parameter validation, stopping rules, history
invariants, BB trial-step policies, and mode equivalences."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stiefelopt.linalg
import stiefelopt.manifold
import stiefelopt.solver
from stiefelopt import (
    CallableObjective,
    EigProblem,
    EnergyProblem,
    FeasibilityError,
    IterationRecord,
    StiefelPoint,
    StiefelSolver,
    Termination,
    WoppProblem,
    as_generator,
    bb_steps,
    clamp_step,
    frobenius_norm,
    gradient_split,
    random_orthonormal,
    retract,
    stopping_check,
)

from helpers import tangent_parts

EXPECTED_DEFAULTS = {
    "alpha": 1.0,
    "beta": 0.0,
    "mode": "nonmonotone",
    "epsilon": 1e-4,
    "tolx": 1e-6,
    "tolf": 1e-12,
    "max_iters": 1000,
    "rho1": 1e-4,
    "eta": 0.85,
    "tau0": 1e-3,
    "step_init": "bb",
    "max_halvings": 60,
}


def _toy_quadratic():
    """F(x) = x^T diag(1,3) x on the circle; minimum 1 at x = (+-1, 0)."""
    return CallableObjective(
        fun=lambda x: float(x[0, 0] ** 2 + 3.0 * x[1, 0] ** 2),
        grad=lambda x: np.array([[2.0 * x[0, 0]], [6.0 * x[1, 0]]]),
        shape=(2, 1),
        name="toy",
    )


def _small_wopp(seed=3, m=20, n=5):
    rng = as_generator(seed)
    problem = WoppProblem.generate(m, n, ptype=1, rng=rng, known_solution=True, seed=seed)
    return problem, random_orthonormal(m, n, rng)


# -- parameters --------------------------------------------------------------------


def test_default_parameters():
    assert StiefelSolver().get_params() == EXPECTED_DEFAULTS


def test_set_params_round_trip_and_unknown_key():
    solver = StiefelSolver()
    assert solver.set_params(alpha=0.25, mode="monotone") is solver
    params = solver.get_params()
    assert params["alpha"] == 0.25 and params["mode"] == "monotone"
    npt.assert_equal(StiefelSolver(**params).get_params(), params)
    with pytest.raises(ValueError, match="unknown parameter"):
        solver.set_params(gamma=1.0)
    # The BB residual is no setting: it is the change in the search direction.
    with pytest.raises(ValueError, match="unknown parameter 'bb_gradient'"):
        solver.set_params(bb_gradient="mixed")
    with pytest.raises(TypeError, match="bb_gradient"):
        StiefelSolver(bb_gradient="mixed")
    # The shrink factor, the BB clamp and the mean rule's window are constants.
    with pytest.raises(ValueError, match="unknown parameter 'delta'"):
        solver.set_params(delta=0.5)
    with pytest.raises(TypeError, match="tau_max"):
        StiefelSolver(tau_max=1.0)


# Each id is the position its case had in a plain list; a deleted case leaves
# its id unused, so the ids of the others stay as they are.
_INVALID_PARAMETERS = {
    "bad0": {"alpha": -1.0},
    "bad1": {"alpha": 0.0, "beta": 0.0},
    "bad2": {"beta": -0.5},
    "bad3": {"mode": "both"},
    "bad4": {"epsilon": 0.0},
    "bad5": {"tolx": -1e-6},
    "bad6": {"tolf": 0.0},
    "bad7": {"tau0": 0.0},
    "bad10": {"max_iters": 0},
    "bad12": {"rho1": 0.0},
    "bad15": {"eta": 1.0},
    "bad16": {"eta": -0.1},
    "bad17": {"step_init": "warm"},
    "bad19": {"max_halvings": 0},
    "bad20": {"step_init": "auto"},
    "bad21": {"max_iters": True},
    "bad23": {"max_halvings": True},
    "bad24": {"alpha": True},
    "bad25": {"rho1": "1e-4"},
    "bad26": {"alpha": math.inf},
    "bad27": {"beta": math.inf},
    "bad28": {"step_init": "fixed", "tau0": math.inf},
    "bad30": {"epsilon": math.inf},
    "bad31": {"tolx": math.inf},
    "bad32": {"tolf": math.inf},
}


@pytest.mark.parametrize("bad", _INVALID_PARAMETERS.values(), ids=list(_INVALID_PARAMETERS))
def test_invalid_parameters_raise_on_solve(bad):
    # Refused before the first evaluation, by a message that names the
    # setting, not partway through the solve by whatever it breaks.
    toy, evaluations = _toy_quadratic(), []
    counted = CallableObjective(
        fun=lambda x: evaluations.append("value") or toy.value(x),
        grad=lambda x: evaluations.append("gradient") or toy.gradient(x),
        shape=(2, 1),
        name="counted toy",
    )
    with pytest.raises(ValueError) as refused:
        StiefelSolver(**bad).solve(counted, np.array([[0.6], [0.8]]))
    assert evaluations == []
    assert any(key in str(refused.value) for key in bad), str(refused.value)


def test_float_parameters_refuse_bool_by_name():
    # The rule of the CLI flags and of the integer parameters: True is not 1.
    for name in ("tau0", "eta", "rho1"):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got True"):
            StiefelSolver(**{name: True}).solve(_toy_quadratic(), np.array([[0.6], [0.8]]))


@pytest.mark.parametrize("name", ["alpha", "beta", "tau0", "rho1", "epsilon", "tolx", "tolf"])
def test_float_parameters_refuse_infinity_by_name(name):
    # Refused before the solve starts, not later as a non-finite direction or step.
    solver = StiefelSolver(**{name: math.inf, "step_init": "fixed"})
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        solver.solve(_toy_quadratic(), np.array([[0.6], [0.8]]))


@pytest.mark.parametrize("name", ["alpha", "tau0", "eta"])
def test_float_parameters_refuse_an_int_too_large_for_a_float_by_name(name):
    # 10**400 is a finite int, but float(10**400) overflows: refused as a
    # setting, not raised as OverflowError.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got 1000"):
        StiefelSolver(**{name: 10**400}).validate_params()


def test_float_parameters_accept_integers_and_numpy_floats():
    x0 = np.array([[0.6], [0.8]])
    a = StiefelSolver(tau0=1, eta=np.float64(0.85), rho1=np.float32(1e-4)).solve(
        _toy_quadratic(), x0
    )
    b = StiefelSolver(tau0=1.0, eta=0.85, rho1=float(np.float32(1e-4))).solve(_toy_quadratic(), x0)
    assert (a.nitr, a.nfe, a.termination, a.fval) == (b.nitr, b.nfe, b.termination, b.fval)


def test_integer_parameters_accept_numpy_integers():
    x0 = np.array([[0.6], [0.8]])
    a = StiefelSolver(max_iters=np.int64(50), max_halvings=np.int32(60)).solve(
        _toy_quadratic(), x0
    )
    b = StiefelSolver(max_iters=50, max_halvings=60).solve(_toy_quadratic(), x0)
    assert (a.nitr, a.nfe, a.termination, a.fval) == (b.nitr, b.nfe, b.termination, b.fval)


@pytest.mark.parametrize("f", dataclasses.fields(StiefelSolver), ids=lambda f: f.name)
def test_every_field_refuses_a_wrong_typed_value_by_name(f):
    # Each field is checked by its declared type, so a field added later is
    # checked without being listed anywhere.
    bad, message = {
        float: ("x", "must be a real number"),
        int: (1.5, "must be an int >= 1"),
        str: (1, "must be one of"),
    }[type(f.default)]
    with pytest.raises(ValueError, match=f"^{f.name} {message}"):
        StiefelSolver(**{f.name: bad}).validate_params()


# -- stopping rules -------------------------------------------------------------------


def _row(k, nrmg=1.0, relx=1.0, relf=1.0):
    return IterationRecord(
        k=k,
        fval=0.0,
        nrmg=nrmg,
        tau=0.1,
        cval=0.0,
        relx=relx,
        relf=relf,
        fastpath=False,
        feasibility=0.0,
        skew_norm=0.0,
    )


def _check(history, **kw):
    kw.setdefault("epsilon", 1e-4)
    kw.setdefault("tolx", 1e-6)
    kw.setdefault("tolf", 1e-12)
    kw.setdefault("max_iters", 100)
    return stopping_check(history, **kw)


def test_stopping_gradient_rule_fires_first():
    assert _check([_row(0, nrmg=5e-5)]) is Termination.GRAD_TOL
    # ...even when the iteration cap is also hit.
    assert _check([_row(0, nrmg=5e-5)], max_iters=0) is Termination.GRAD_TOL


def test_stopping_none_while_no_rule_fires():
    assert _check([_row(0)]) is None
    assert _check([_row(0), _row(1)]) is None


def test_stopping_relative_change_needs_both_tolerances():
    rows = [_row(0), _row(1, relx=1e-7, relf=1e-13)]
    assert _check(rows) is Termination.REL_CHANGE
    assert _check([_row(0), _row(1, relx=1e-7, relf=1e-3)]) is None
    assert _check([_row(0), _row(1, relx=1e-3, relf=1e-13)]) is None


def test_stopping_mean_rule_uses_the_window():
    # Last row alone fails the strict rule (relx = 5e-6 > tolx) but the
    # window means land within 10*tolx and 10*tolf.
    rows = [_row(0), _row(1), _row(2)]
    rows += [_row(k, relx=5e-6, relf=5e-12) for k in (3, 4, 5)]
    assert _check(rows, window=3) is Termination.REL_CHANGE_MEAN
    # A big entry inside the window breaks the mean.
    rows[-2] = _row(4, relx=1.0, relf=5e-12)
    assert _check(rows, window=3) is None


def test_stopping_window_truncates_to_available_rows():
    rows = [_row(0), _row(1, relx=5e-6, relf=5e-12)]
    assert _check(rows, window=5) is Termination.REL_CHANGE_MEAN


def test_stopping_rel_change_precedes_mean_rule():
    rows = [_row(0)] + [_row(k, relx=1e-8, relf=1e-14) for k in (1, 2, 3)]
    assert _check(rows) is Termination.REL_CHANGE


def test_stopping_iteration_cap_and_empty_history():
    rows = [_row(k) for k in range(6)]
    assert _check(rows, max_iters=5) is Termination.MAX_ITERS
    with pytest.raises(ValueError, match="nonempty"):
        _check([])


def test_termination_strings_and_success_set():
    assert str(Termination.GRAD_TOL) == "GradTol"
    assert str(Termination.LINE_SEARCH_FAILED) == "LineSearchFailed"
    assert {str(t) for t in Termination} == {
        "GradTol",
        "RelChange",
        "RelChangeMean",
        "MaxIters",
        "LineSearchFailed",
        "NoProgress",
    }


# -- basic solves -------------------------------------------------------------------


def test_stationary_start_stops_immediately():
    problem = EigProblem(np.diag([3.0, 2.0, 1.0]), 1)
    x0 = np.array([[1.0], [0.0], [0.0]])  # dominant eigenvector
    report = StiefelSolver().solve(problem, x0)
    assert report.termination is Termination.GRAD_TOL
    assert report.nitr == 0 and report.nfe == 1 and report.nge == 1
    assert report.fval == -3.0
    npt.assert_array_equal(report.x, x0)
    assert len(report.history) == 1
    first = report.history[0]
    assert math.isnan(first.tau) and math.isnan(first.slope)
    assert first.fastpath is None


def test_toy_quadratic_converges_to_the_minimizer():
    report = StiefelSolver().solve(_toy_quadratic(), np.array([[0.6], [0.8]]))
    assert report.converged and report.termination is Termination.GRAD_TOL
    assert report.nrmg <= 1e-4
    assert report.fval == pytest.approx(1.0, abs=1e-6)
    assert abs(report.x[0, 0]) == pytest.approx(1.0, abs=1e-4)
    assert report.name == "toy"


def test_solve_report_bookkeeping():
    problem, x0 = _small_wopp()
    report = StiefelSolver(alpha=0.5, beta=0.5).solve(problem, x0)
    assert report.converged
    assert report.nge == report.nitr + 1
    assert report.nfe == sum(row.nfe for row in report.history)
    last = report.history[-1]
    assert report.fval == last.fval
    assert (report.nitr, report.nrmg, report.feasi) == (last.k, last.nrmg, last.feasibility)
    assert report.feasi <= 1e-12
    data = report.to_dict()
    assert data["termination"] == str(report.termination)
    assert data["converged"] is True
    assert "history" not in data
    rows = report.to_dict(include_history=True)["history"]
    assert len(rows) == report.nitr + 1
    assert rows[0]["cval"] == report.history[0].cval
    for k, row in enumerate(rows):
        assert row == dataclasses.asdict(report.history[k])


def test_history_invariants_nonmonotone():
    problem, x0 = _small_wopp(seed=5)
    solver = StiefelSolver(alpha=0.5, beta=0.5)
    report = solver.solve(problem, x0)
    hist = report.history
    assert report.converged and len(hist) > 5
    running_min = math.inf
    for k, row in enumerate(hist):
        assert row.k == k
        assert row.feasibility <= 1e-12
        running_min = min(running_min, row.fval)
        assert row.cval >= running_min - 1e-12 * max(1.0, abs(running_min))
        if k > 0:
            assert hist[k].cval <= hist[k - 1].cval  # averaged reference decreases
            # Re-check the accepted sufficient-decrease inequality from the
            # stored reference, step, and slope.
            prev = hist[k - 1]
            assert row.fval < prev.cval + solver.rho1 * row.tau * prev.slope
        if k < len(hist) - 1:  # slope of the step leaving this iterate
            bound = -0.5 * solver.alpha * row.skew_norm**2
            assert row.slope <= bound + 1e-9 * max(1.0, abs(bound))


def _infinite_start_quadratic():
    """A weighted quadratic on St(20, 3) that is inf at its start ``x0`` only."""
    x0 = random_orthonormal(20, 3, 41)
    weights = np.arange(1.0, 21.0)[:, None]
    objective = CallableObjective(
        fun=lambda x: math.inf if np.array_equal(x, x0) else float(np.sum(weights * x * x)),
        grad=lambda x: 2.0 * weights * x,
        shape=(20, 3),
    )
    return objective, x0


def test_eta_zero_matches_monotone_from_an_infinite_start():
    # F(X_0) = inf: the reference starts at inf, and eta = 0 must still
    # collapse it onto the first accepted value, as monotone mode does.
    objective, x0 = _infinite_start_quadratic()
    a, b = (
        StiefelSolver(**extra).solve(objective, x0)
        for extra in ({"eta": 0.0}, {"mode": "monotone"})
    )
    assert a.history[0].cval == math.inf and a.converged
    assert (a.nitr, a.nfe, a.termination) == (b.nitr, b.nfe, b.termination)
    assert a.x.tobytes() == b.x.tobytes()
    npt.assert_equal(
        [dataclasses.astuple(r) for r in a.history], [dataclasses.astuple(r) for r in b.history]
    )


def test_averaged_reference_recovers_from_an_infinite_start():
    # With eta > 0 the reference restarts at the first accepted value, so
    # from row 1 on it is finite and every step meets the Armijo test.
    objective, x0 = _infinite_start_quadratic()
    solver = StiefelSolver()
    hist = solver.solve(objective, x0).history
    assert hist[0].cval == math.inf and len(hist) > 2
    for row in hist[1:]:
        assert math.isfinite(row.cval) and row.cval >= row.fval
    for prev, row in zip(hist[1:], hist[2:]):
        assert row.fval < prev.cval + solver.rho1 * row.tau * prev.slope


# -- the same invariants over random draws ---------------------------------------------


@st.composite
def _wopp_solves(draw):
    """A seeded WOPP instance on St(m <= 12, n <= 4), its start, and solver settings."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = as_generator(seed)
    problem = WoppProblem.generate(
        m, n, ptype=draw(st.sampled_from((1, 2, 3))), rng=rng,
        known_solution=draw(st.booleans()), seed=seed,
    )
    params = {
        "alpha": draw(st.floats(0.05, 1.0)),
        "beta": draw(st.floats(0.0, 1.0)),
        "eta": draw(st.floats(0.0, 0.95)),
        "max_iters": draw(st.integers(1, 200)),
    }
    return problem, random_orthonormal(m, n, rng), params


def _slack(value):
    return 1e-12 * max(1.0, abs(value))


@settings(deadline=None, max_examples=60)
@given(_wopp_solves())
def test_reference_bounds_the_value_and_never_increases(case):
    problem, x0, params = case
    hist = StiefelSolver(**params).solve(problem, x0).history
    for k, row in enumerate(hist):
        assert row.cval >= row.fval - _slack(row.fval)
        if k > 0:
            assert row.cval <= hist[k - 1].cval + _slack(hist[k - 1].cval)


@settings(deadline=None, max_examples=60)
@given(_wopp_solves(), st.sampled_from(stiefelopt.solver.PARAM_CHOICES["step_init"]))
@example((*_small_wopp(seed=7), {}), "bb")
def test_monotone_mode_decreases_strictly_on_random_draws(case, step_init):
    problem, x0, params = case
    report = StiefelSolver(**params, mode="monotone", step_init=step_init).solve(problem, x0)
    fvals = [row.fval for row in report.history]
    assert all(b < a for a, b in zip(fvals, fvals[1:]))
    # Monotone rows store the plain objective as the reference value.
    assert all(row.cval == row.fval for row in report.history)


@settings(deadline=None, max_examples=60)
@given(_wopp_solves())
@example((*_small_wopp(seed=11, m=30, n=8), {"alpha": 0.5, "beta": 0.5}))
def test_eta_zero_matches_monotone_with_bb_on_random_draws(case):
    # The monotone side keeps the drawn eta, which it must ignore, and the
    # default step policy, which is BB in both modes.
    problem, x0, params = case
    runs = []
    for solver_params in (dict(params, eta=0.0), dict(params, mode="monotone")):
        iterates = []
        solver = StiefelSolver(**solver_params)
        report = solver.solve(problem, x0, callback=lambda k, x: iterates.append(x.copy()))
        runs.append((report, iterates))
    (rep_a, its_a), (rep_b, its_b) = runs
    assert (rep_a.nitr, rep_a.nfe, rep_a.fval.hex()) == (rep_b.nitr, rep_b.nfe, rep_b.fval.hex())
    assert rep_a.termination == rep_b.termination and len(its_a) == len(its_b)
    for xa, xb in zip(its_a, its_b):
        assert xa.tobytes() == xb.tobytes()


@settings(deadline=None, max_examples=60)
@given(_wopp_solves())
@example((*_small_wopp(seed=13), {"alpha": 0.5, "beta": 0.5}))
def test_solve_is_deterministic_on_random_draws(case):
    problem, x0, params = case
    a, b = (StiefelSolver(**params).solve(problem, x0) for _ in range(2))
    assert (a.nitr, a.nfe, a.termination) == (b.nitr, b.nfe, b.termination)
    assert a.x.tobytes() == b.x.tobytes()
    # assert_equal counts NaN as equal to NaN (row 0 has no incoming step).
    npt.assert_equal(
        [dataclasses.astuple(r) for r in a.history], [dataclasses.astuple(r) for r in b.history]
    )


def test_iterations_build_no_n_by_n_array():
    # One n x n float64 array is 32 MB here; the loop's n x p arrays are 160 KB.
    n, p = 2000, 10
    problem = EnergyProblem(n, p)
    x0 = random_orthonormal(n, p, 0)
    tracemalloc.start()
    try:
        StiefelSolver(max_iters=3).solve(problem, x0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_iterations_validate_arrays_a_bounded_number_of_times(monkeypatch):
    # Arrays are validated once, where they enter: the start point, each
    # gradient from the objective and each trial's direction.  The points
    # retract forms are certified in place, not re-scanned or copied, so the
    # only StiefelPoint built by the constructor is the start.
    original = stiefelopt.linalg.as_matrix
    calls, inits, svds = [], [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original_init = StiefelPoint.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(args)
        original_init(self, *args, **kwargs)

    original_svd = stiefelopt.manifold.thin_svd

    def counting_svd(x):
        svds.append(x.shape)
        return original_svd(x)

    problem = EnergyProblem(200, 5)
    x0 = random_orthonormal(200, 5, 0)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stiefelopt" and getattr(module, "as_matrix", None) is original:
            monkeypatch.setattr(module, "as_matrix", counting)
    monkeypatch.setattr(StiefelPoint, "__init__", counting_init)
    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting_svd)
    report = StiefelSolver(max_iters=5).solve(problem, x0)
    assert report.nitr == 5 and svds == []  # no SVD rescue
    # report.nfe counts F(X_0) and every trial, report.nge every gradient.
    assert len(calls) == report.nge + report.nfe
    assert len(inits) == 1


def test_loop_shape_stopping_bb_and_callback(monkeypatch):
    # The stopping rules see every row, X_0 included; a BB step is formed
    # only for a step the solve goes on to take, so none leaves X_0 (fixed
    # tau0) and none leaves the final iterate.
    calls = {"bb_steps": 0, "stopping_check": 0}
    for name in calls:
        original = getattr(stiefelopt.solver, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stiefelopt.solver, name, counting)
    problem, x0 = _small_wopp(seed=5)
    seen = []
    report = StiefelSolver().solve(problem, x0, callback=lambda k, x: seen.append((k, x.copy())))
    assert report.converged and report.nitr >= 3
    assert calls == {"bb_steps": report.nitr - 1, "stopping_check": report.nitr + 1}
    assert [k for k, _ in seen] == list(range(1, report.nitr + 1))
    npt.assert_array_equal(seen[-1][1], report.x)


def test_solve_loop_calls_no_svd(monkeypatch):
    # Every exact retraction of a solve takes the closed-form polar factor;
    # the SVD is only a rescue for far larger steps than a solve takes.
    calls = []
    original = stiefelopt.manifold.thin_svd

    def counting(x):
        calls.append(x.shape)
        return original(x)

    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting)
    problem, x0 = _small_wopp(seed=0, m=40, n=20)
    report = StiefelSolver(alpha=0.5, beta=0.5).solve(problem, x0)
    assert report.converged
    assert sum(not r.fastpath for r in report.history[1:]) > 0
    assert calls == []


@pytest.mark.parametrize("mode", ["monotone", "nonmonotone"])
def test_gradient_is_asked_only_at_the_array_just_valued(mode):
    # The contract the built-in problems' shared work relies on: every
    # gradient(x) follows value(x) at the very same read-only array.
    problem, x0 = _small_wopp(seed=9)
    calls = []

    def record(kind, method):
        def call(x):
            calls.append((kind, x, x.flags.writeable))
            return method(x)

        return call

    objective = CallableObjective(
        fun=record("value", problem.value),
        grad=record("gradient", problem.gradient),
        shape=problem.shape,
    )
    report = StiefelSolver(alpha=0.5, beta=0.5, mode=mode).solve(objective, x0)
    assert report.converged
    grads = [i for i, (kind, _, _) in enumerate(calls) if kind == "gradient"]
    assert len(grads) == report.nge
    for i in grads:
        kind, x, writeable = calls[i - 1]
        assert kind == "value" and x is calls[i][1] and not writeable
        assert not calls[i][2]


class _CountingMatrix(np.ndarray):
    """A matrix that counts the rows of it that products multiply: all of them
    in ``X^T @ A``, each panel's in a batched ``np.matmul(A[:k].reshape(-1, r, n), X)``."""

    rows = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        plain = lambda v: v.view(np.ndarray) if isinstance(v, _CountingMatrix) else v
        if ufunc is np.matmul:
            counted = [v for v in inputs if isinstance(v, _CountingMatrix)]
            type(self).rows += sum(v.size // v.shape[-1] for v in counted)
        if out:
            kwargs["out"] = tuple(map(plain, out))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


# St(60, 4) takes (X^T A)^T; St(300, 12) takes row panels of 277 and 23 rows.
@pytest.mark.parametrize("n, p", [(60, 4), (300, 12)])
def test_eig_solve_takes_one_product_with_a_per_iterate(monkeypatch, n, p):
    # The gradient reuses the A @ X its value just formed, and a search's
    # later trials are valued along the curve from that A @ X and the first
    # trial's A @ Z, so a solve multiplies all n rows of A nge times, not nfe + nge.
    rng = as_generator(2)
    problem = EigProblem.generate(n, p, rng=rng)
    x0 = random_orthonormal(n, p, rng)
    monkeypatch.setattr(_CountingMatrix, "rows", 0)
    problem.a = problem.a.view(_CountingMatrix)
    report = StiefelSolver(mode="monotone", step_init="bb").solve(problem, x0)
    assert report.converged
    assert report.nfe > report.nge  # some search backtracked
    assert _CountingMatrix.rows == report.nge * n
    assert problem._memo is None  # no trial outlives its gradient in the memo


def test_random_start_is_reproducible_from_seed():
    problem, _ = _small_wopp(seed=17)
    rep_a = StiefelSolver().solve(problem, rng=7)
    rep_b = StiefelSolver().solve(problem, rng=7)
    assert rep_a.fval == rep_b.fval and rep_a.nitr == rep_b.nitr


# -- BB trial-step policies --------------------------------------------------------------


def _recompute_trials(problem, x0, iterates, solver):
    """Expected BB trial step for each transition, from first principles."""
    xs = [np.asarray(x0)] + iterates

    def direction(point):
        canonical, complement = tangent_parts(point, problem.gradient(point.x))
        return solver.alpha * canonical + solver.beta * complement

    directions = [direction(StiefelPoint(x)) for x in xs]
    trials = {}
    for k in range(1, len(xs) - 1):  # step leaving iterate k
        s = xs[k] - xs[k - 1]
        bb1, bb2 = bb_steps(s, directions[k] - directions[k - 1])
        raw = bb1 if (k - 1) % 2 == 0 else bb2
        trials[k] = clamp_step(raw)
    return trials


@pytest.mark.parametrize(
    "seed, alpha, beta", [(19, 1.0, 0.0), (23, 0.5, 0.5)], ids=["default-mix", "balanced-mix"]
)
def test_accepted_steps_match_recomputed_bb_trials(seed, alpha, beta):
    # The BB residual is the change in the mixed direction, whatever the mix.
    problem, x0 = _small_wopp(seed=seed)
    solver = StiefelSolver(alpha=alpha, beta=beta)
    iterates = []
    report = solver.solve(problem, x0, callback=lambda k, x: iterates.append(x.copy()))
    assert report.converged
    trials = _recompute_trials(problem, x0, iterates, solver)
    # Rows accepted on the first evaluation expose the trial step directly.
    checked = 0
    for k, expected in trials.items():
        row = report.history[k + 1]
        if row.nfe == 1:
            assert row.tau == pytest.approx(expected, rel=1e-12)
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize(
    "build",
    [lambda: _small_wopp(seed=3, m=60, n=12),
     lambda: (EigProblem.generate(60, 6, seed=3), random_orthonormal(60, 6, 3))],
    ids=["wopp", "eig"],
)
def test_bb_step_does_not_depend_on_the_scale_of_the_mix(build):
    # Doubling H = alpha*C + beta*P doubles R, so every BB trial step halves and
    # tau*H, the iterates and the Armijo test stay the same bits.
    problem, x0 = build()
    a, b, t = 0.5, 0.3, 1e-3
    one = StiefelSolver(alpha=a, beta=b, tau0=t).solve(problem, x0)
    two = StiefelSolver(alpha=2 * a, beta=2 * b, tau0=t / 2).solve(problem, x0)
    assert one.converged and one.x.tobytes() == two.x.tobytes()

    def column(report, name):
        return np.array([getattr(row, name) for row in report.history])

    for name in ("fval", "nrmg", "relx", "nfe"):
        npt.assert_array_equal(column(one, name), column(two, name))
    npt.assert_array_equal(column(one, "tau") / 2, column(two, "tau"))
    npt.assert_array_equal(column(one, "slope") * 2, column(two, "slope"))


def test_fixed_step_policy_reuses_tau0():
    problem, x0 = _small_wopp(seed=29)
    solver = StiefelSolver(step_init="fixed", tau0=0.05, max_iters=40)
    report = solver.solve(problem, x0)
    accepted = [row.tau for row in report.history[1:]]
    assert accepted  # at least one step taken
    for tau in accepted:
        # Every accepted step is tau0 shrunk zero or more times.
        j = round(math.log(tau / 0.05, 0.3))
        assert tau == pytest.approx(0.05 * 0.3**j, rel=1e-12)


# -- failure paths -------------------------------------------------------------------------


def test_vanishing_slope_reports_line_search_failure():
    # Linear objective with gradient X0 M: at X0 the complement component
    # vanishes, so alpha = 0 leaves a zero slope and no certified descent,
    # while the canonical measure stays large (no spurious GradTol).
    x0 = np.eye(4, 2)
    const = x0 @ np.array([[1.0, 2.0], [3.0, 4.0]])
    objective = CallableObjective(
        fun=lambda x: float(np.sum(const * x)),
        grad=lambda x: const,
        shape=(4, 2),
    )
    report = StiefelSolver(alpha=0.0, beta=1.0).solve(objective, x0)
    assert report.termination is Termination.LINE_SEARCH_FAILED
    assert not report.converged
    assert report.nitr == 0
    assert report.history[0].slope == 0.0
    assert report.nrmg > 1.0


def test_exhausted_backtracking_reports_line_search_failure():
    # A huge fixed trial step with a budget of one shrink cannot reach the
    # Armijo region (values on the circle stay in [1, 3] while the
    # threshold is astronomically negative).
    solver = StiefelSolver(
        mode="monotone", step_init="fixed", tau0=1e12, max_halvings=1
    )
    report = solver.solve(_toy_quadratic(), np.array([[0.6], [0.8]]))
    assert report.termination is Termination.LINE_SEARCH_FAILED
    assert report.nitr == 0
    assert report.fval == pytest.approx(2.28)  # untouched starting value
    assert report.nfe == 3  # initial evaluation + two rejected trials


def test_a_step_that_moved_x_by_rounding_alone_is_not_convergence():
    # With its gradient negated, backtracking from X_0 shrinks tau to 6.9e-19,
    # where X - tau H rounds to X, and rounding lets that trial pass the
    # Armijo test: its relx of 1.3e-16 would satisfy the RelChange rule.
    problem = EigProblem.generate(50, 5, seed=3)
    objective = CallableObjective(
        fun=problem.value, grad=lambda x: -problem.gradient(x), shape=problem.shape
    )
    reports = [StiefelSolver().solve(objective, random_orthonormal(50, 5, s)) for s in range(5)]
    assert not any(r.converged for r in reports)
    first = reports[0]
    assert first.termination is Termination.NO_PROGRESS
    assert (first.nitr, first.nfe, first.nge, len(first.history)) == (0, 31, 1, 1)
    npt.assert_array_equal(first.x, random_orthonormal(50, 5, 0))
    assert first.nrmg > 100
    # With the true gradient, a fixed first trial of 1e-14 passes the Armijo
    # test and moves X by relx = 2.6e-13, within _ROUNDING_RELX = 1e-12 (a
    # rule at 1e-13 would read it as progress and the solve as converged).
    point = StiefelPoint(first.x)
    trial = retract(point, gradient_split(point, problem.gradient(point.x)).direction, 1e-14)[0]
    assert 1e-13 < frobenius_norm(trial.x - point.x) / math.sqrt(50) < 1e-12
    stalled = StiefelSolver(step_init="fixed", tau0=1e-14).solve(problem, point)
    assert stalled.termination is Termination.NO_PROGRESS
    assert (stalled.nitr, stalled.nfe, stalled.nge) == (0, 2, 1)


def test_alpha_zero_runs_without_descent_certificate():
    problem, x0 = _small_wopp(seed=31, m=12, n=3)
    report = StiefelSolver(alpha=0.0, beta=1.0).solve(problem, x0)
    assert report.nitr >= 1
    assert isinstance(report.termination, Termination)


# -- input handling --------------------------------------------------------------------------


def test_solve_rejects_bad_starts():
    solver = StiefelSolver()
    with pytest.raises(ValueError, match="shape"):
        solver.solve(_toy_quadratic(), np.eye(3, 2))
    with pytest.raises(FeasibilityError):
        solver.solve(_toy_quadratic(), 2.0 * np.eye(2, 1))


def test_solve_accepts_stiefel_points_and_calls_back():
    problem, x0 = _small_wopp(seed=37, m=12, n=3)
    seen = []
    report = StiefelSolver().solve(
        problem, StiefelPoint(x0), callback=lambda k, x: seen.append(k)
    )
    assert seen == list(range(1, report.nitr + 1))
