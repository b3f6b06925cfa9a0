"""Step-size machinery: BB trial steps, clamping, the averaged non-monotone
reference, and Armijo backtracking along the projected curve."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stiefelopt import (
    EigProblem,
    NonmonotoneState,
    StiefelPoint,
    backtrack,
    bb_steps,
    clamp_step,
    descent_derivative,
    frobenius_norm,
    gradient_split,
    nonmonotone_update,
    random_orthonormal,
    retract,
)
from stiefelopt.linesearch import CURVE_MAX_COND
from stiefelopt.solver import PARAM_CHOICES


class _ValueOnly:
    """Minimal objective for backtracking tests (only ``value`` is needed)."""

    def __init__(self, fun):
        self._fun = fun

    def value(self, x):
        return self._fun(x)


def _circle_quadratic_case():
    """X = (1,1)/sqrt2 on the unit circle with F(x) = x^T diag(1,3) x.

    F(X) = 2, the skew factor has entries +-2 (norm^2 = 8), the canonical
    direction is (-sqrt2, sqrt2), and the pure-canonical slope is -4.
    """
    objective = _ValueOnly(lambda x: float(x[0, 0] ** 2 + 3.0 * x[1, 0] ** 2))
    point = StiefelPoint(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
    grad = np.array([[2.0 * point.x[0, 0]], [6.0 * point.x[1, 0]]])
    split = gradient_split(point, grad)
    direction = split.direction
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(direction, [[-root2], [root2]], rtol=0, atol=1e-14)
    slope = descent_derivative(split, 1.0, 0.0)
    assert slope == pytest.approx(-4.0, abs=1e-12)
    return objective, point, direction, slope


# -- BB trial steps -------------------------------------------------------------


def test_bb_steps_hand_values():
    s = np.array([[1.0], [1.0]])
    r = np.array([[1.0], [2.0]])
    # ||S||^2 = 2, <S,R> = 3, ||R||^2 = 5.
    bb1, bb2 = bb_steps(s, r)
    assert bb1 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert bb2 == pytest.approx(3.0 / 5.0, rel=1e-15)


def test_bb_steps_take_absolute_values():
    s = np.array([[1.0], [1.0]])
    assert bb_steps(s, -np.array([[1.0], [2.0]])) == pytest.approx((2.0 / 3.0, 0.6))


def test_bb_steps_degenerate_denominators():
    s = np.array([[1.0], [0.0]])
    bb1, bb2 = bb_steps(s, np.array([[0.0], [1.0]]))  # orthogonal: <S,R> = 0
    assert bb1 == math.inf and bb2 == 0.0
    bb1, bb2 = bb_steps(s, np.zeros((2, 1)))  # zero residual
    assert bb1 == math.inf and bb2 == math.inf
    assert clamp_step(bb1, 1e-20, 1e20) == 1e20
    # <S,R> = 1e-31 and ||R||^2 = 1e-38 are below BB_DENOM_TOL but not 0:
    # a bare == 0 guard would give 1e7 for both.
    assert bb_steps(1e-12 * s, 1e-19 * s) == (math.inf, math.inf)


def test_clamp_step_and_validation():
    assert clamp_step(5.0, 1.0, 10.0) == 5.0
    assert clamp_step(0.1, 1.0, 10.0) == 1.0
    assert clamp_step(100.0, 1.0, 10.0) == 10.0
    with pytest.raises(ValueError, match="tau_min"):
        clamp_step(1.0, 0.0, 10.0)
    with pytest.raises(ValueError, match="tau_min"):
        clamp_step(1.0, 2.0, 1.0)


# -- non-monotone reference ------------------------------------------------------


def test_nonmonotone_update_hand_values():
    state = nonmonotone_update(NonmonotoneState(q=1.0, c=10.0), 4.0, eta=0.85)
    assert state.q == pytest.approx(1.85)
    assert state.c == pytest.approx(12.5 / 1.85)  # (0.85*10 + 4) / 1.85


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(c=_finite, q=st.floats(min_value=1.0, allow_infinity=False), f_new=_finite)
@example(c=10.0, q=3.0, f_new=4.0)
@example(c=-2.5e4, q=1.0, f_new=-2.6e4)  # eig-monotone's references are negative
def test_nonmonotone_update_eta_zero_collapses_to_newest(c, q, f_new):
    # The averaged formula itself gives q = 0*q + 1 and c = (+-0 + f_new) / 1.
    assert nonmonotone_update(NonmonotoneState(q, c), f_new, 0.0) == NonmonotoneState(1.0, f_new)


def test_nonmonotone_update_eta_zero_forgets_an_infinite_reference():
    # A start with F(X_0) = inf must not turn the reference into 0 * inf = NaN.
    assert nonmonotone_update(NonmonotoneState(1.0, math.inf), 3.0, 0.0).c == 3.0


def test_nonmonotone_update_restarts_an_infinite_reference():
    # With eta > 0 an infinite reference would stay infinite (eta*q*inf) and
    # let every later trial pass; it restarts as at eta = 0 instead.
    state = nonmonotone_update(NonmonotoneState(1.0, math.inf), 3.0, 0.85)
    assert state == NonmonotoneState(1.0, 3.0)


def test_nonmonotone_update_eta_one_is_running_mean():
    values = [10.0, 4.0, 7.0, 1.0]
    state = NonmonotoneState(q=1.0, c=values[0])
    for i, v in enumerate(values[1:], start=2):
        state = nonmonotone_update(state, v, eta=1.0)
        assert state.q == pytest.approx(i)
        assert state.c == pytest.approx(sum(values[:i]) / i)


def test_nonmonotone_update_validates_eta():
    state = NonmonotoneState(q=1.0, c=0.0)
    for eta in (-0.1, 1.1):
        with pytest.raises(ValueError, match="eta"):
            nonmonotone_update(state, 0.0, eta)


# -- backtracking ------------------------------------------------------------------


def test_backtrack_accepts_first_trial_on_the_circle():
    # With tau0 = 1 the fallback projection of X - H is (3,-1)/sqrt(10),
    # where F = (9 + 3)/10 = 1.2, well below 2 - rho1*4.
    objective, point, direction, slope = _circle_quadratic_case()
    result = backtrack(objective, point, direction, slope, 1.0, c_ref=2.0)
    assert result.tau == 1.0
    assert result.nfe == 1
    assert result.accepted
    assert not result.fastpath
    assert result.value == pytest.approx(1.2, abs=1e-12)
    expected = np.array([[3.0], [-1.0]]) / math.sqrt(10.0)
    np.testing.assert_allclose(result.point.x, expected, atol=1e-12)


def test_backtrack_shrinks_until_sufficient_decrease():
    # rho1 = 0.9 makes the threshold brutal: trials at tau = 8, 2.4, 0.72,
    # 0.216 all fail, and tau = 8 * 0.3^4 = 0.0648 is the first accept
    # (F there is ~1.74508 vs threshold ~1.76672, from the angle form
    # F = 2 - cos(2 theta) of this objective on the circle).
    objective, point, direction, slope = _circle_quadratic_case()
    result = backtrack(
        objective, point, direction, slope, 8.0, c_ref=2.0, rho1=0.9
    )
    assert result.tau == pytest.approx(8.0 * 0.3**4, rel=1e-15)
    assert result.nfe == 5
    assert result.value == pytest.approx(1.745081649404, abs=1e-9)
    assert result.value < 2.0 + 0.9 * result.tau * slope


def test_backtrack_rejects_exact_ties():
    # A constant objective equal to the first threshold is *not* accepted
    # (the test is strict), but passes against the looser second threshold.
    point = StiefelPoint(np.array([[1.0], [0.0]]))
    direction = np.array([[0.0], [1.0]])
    c_ref, slope, tau0, rho1 = 5.0, -1.0, 1.0, 1e-4
    tie_value = c_ref + rho1 * tau0 * slope
    result = backtrack(
        _ValueOnly(lambda x: tie_value), point, direction, slope, tau0, c_ref, rho1=rho1
    )
    assert result.nfe == 2
    assert result.tau == pytest.approx(0.3 * tau0, rel=1e-15)


def test_backtrack_exhaustion_returns_the_lowest_value_trial():
    point = StiefelPoint(np.array([[1.0], [0.0]]))
    direction = np.array([[0.0], [1.0]])
    # (trial values, reference, lowest value, its step): a NaN trial loses to
    # any other, and ties keep the first trial seen.
    cases = [
        ([9.0, 6.0, 8.0, 7.0], 5.0, 6.0, 0.3),
        ([math.nan, 12.0, 13.0, 14.0], 0.0, 12.0, 0.3),
        ([7.5] * 6, 5.0, 7.5, 1.0),
    ]
    for trials, c_ref, lowest, tau in cases:
        values = iter(trials)
        result = backtrack(
            _ValueOnly(lambda x: next(values)),
            point,
            direction,
            slope=-1.0,
            tau0=1.0,
            c_ref=c_ref,
            max_halvings=len(trials) - 1,
        )
        assert result.accepted is False
        assert result.nfe == len(trials)  # the first trial plus every shrink
        assert result.value == lowest
        assert result.tau == tau
        np.testing.assert_array_equal(result.point.x, retract(point, direction, tau)[0].x)


def test_backtrack_validates_arguments():
    objective, point, direction, slope = _circle_quadratic_case()
    with pytest.raises(ValueError, match="slope"):
        backtrack(objective, point, direction, 0.0, 1.0, c_ref=2.0)
    with pytest.raises(ValueError, match="tau0"):
        backtrack(objective, point, direction, slope, 0.0, c_ref=2.0)
    with pytest.raises(ValueError, match="rho1"):
        backtrack(objective, point, direction, slope, 1.0, c_ref=2.0, rho1=1.0)
    with pytest.raises(ValueError, match="delta"):
        backtrack(objective, point, direction, slope, 1.0, c_ref=2.0, delta=0.0)


# -- eig trials along the curve ---------------------------------------------------


class _CheckedEig(EigProblem):
    """An eig problem that counts its products with ``A`` and, for each value
    it takes from a given ``A Z``, records the relative errors of that product
    and of the value against the direct ``(Z^T A)^T``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.products, self.errors = 0, []

    def _times_a(self, x):
        self.products += 1
        return super()._times_a(x)

    def _value_from(self, x, ax):
        direct = (x.T @ self.a).T
        value = super()._value_from(x, ax)
        exact = -float(np.sum(x * direct))
        self.errors.append(
            (abs(value - exact) / abs(exact), frobenius_norm(ax - direct) / frobenius_norm(direct))
        )
        return value


def _eig_search(shape, seed, mix, mode):
    """``(problem, point, direction, slope, c_ref)`` of a search from a random
    start along the ``(alpha, beta)`` mix, after the start's value and
    gradient, as the solver leaves them."""
    problem = _CheckedEig.generate(*shape, seed=seed)
    point = StiefelPoint(random_orthonormal(*shape, seed))
    f_x = problem.value(point.x)
    split = gradient_split(point, problem.gradient(point.x), *mix)
    c_ref = f_x
    if mode == "nonmonotone":  # the reference after a step down from 0.9 F(X)
        c_ref = nonmonotone_update(NonmonotoneState(q=1.0, c=0.9 * f_x), f_x, 0.85).c
    return problem, point, split.direction, descent_derivative(split, *mix), c_ref


def _fields(result):
    return (result.tau, result.value, result.nfe, result.fastpath, result.accepted,
            result.point.x.tobytes())


# At (16, 12), (9, 3) and (12, 1) the (X^T A)^T product differs from A X in
# the last bits.  At (16, 12) the complement direction (alpha = 0) has rank
# at most 4, so its steps grow ill-conditioned with tau.  At (2, 2) the
# objective is constant, so the direction is rounding noise, far from
# tangent: in the seed-14080 example the first step's condition number is
# 4.7 and the second's 8e4.  An infinite stretch is an infinite BB quotient
# clamped to the default tau_max = 1e20.
@settings(deadline=None, max_examples=50)
@given(
    shape=st.sampled_from([(16, 12), (9, 3), (12, 1), (40, 5), (2, 2)]),
    seed=st.integers(0, 2**16),
    stretch=st.one_of(st.floats(-6, 6).map(lambda e: 10.0**e), st.just(math.inf)),
    mix=st.sampled_from([(1.0, 0.0), (0.75, 0.5), (0.0, 1.0)]),
    mode=st.sampled_from(PARAM_CHOICES["mode"]),
    rho1=st.sampled_from([1e-4, 0.9]),
)
@example(shape=(16, 12), seed=0, stretch=1e-6, mix=(1.0, 0.0), mode="monotone", rho1=1e-4)
@example(shape=(16, 12), seed=0, stretch=100.0, mix=(0.0, 1.0), mode="monotone", rho1=0.9)
@example(shape=(9, 3), seed=0, stretch=10.0, mix=(0.75, 0.5), mode="monotone", rho1=0.9)
@example(shape=(12, 1), seed=0, stretch=10.0, mix=(1.0, 0.0), mode="nonmonotone", rho1=0.9)
@example(shape=(40, 5), seed=0, stretch=1e6, mix=(0.75, 0.5), mode="nonmonotone", rho1=1e-4)
@example(shape=(40, 5), seed=0, stretch=math.inf, mix=(1.0, 0.0), mode="monotone", rho1=0.9)
@example(shape=(2, 2), seed=14080, stretch=8.134691119331249, mix=(1.0, 0.0), mode="monotone", rho1=1e-4)
def test_eig_curve_values_match_the_direct_product(shape, seed, stretch, mix, mode, rho1):
    problem, point, direction, slope, c_ref = _eig_search(shape, seed, mix, mode)
    assume(slope < 0)
    tau0 = clamp_step(stretch / frobenius_norm(direction), 1e-20, 1e20)
    problem.errors.clear()
    result = backtrack(problem, point, direction, slope, tau0, c_ref, rho1=rho1)
    assert all(err_f <= 1e-13 and err_az <= 1e-13 for err_f, err_az in problem.errors)
    if result.accepted and result.nfe > 1:
        # The A Z the accepted trial leaves is what its gradient takes.
        products, kept = problem.products, problem._product(result.point.x)
        direct = (result.point.x.T @ problem.a).T
        assert frobenius_norm(kept - direct) <= 1e-13 * frobenius_norm(direct)
        assert problem.gradient(result.point.x).tobytes() == (-2.0 * kept).tobytes()
        assert problem.products == products
    proxy = SimpleNamespace(
        shape=problem.shape, name=problem.name, value=problem.value, gradient=problem.gradient
    )
    plain = backtrack(proxy, point, direction, slope, tau0, c_ref, rho1=rho1)
    if result.nfe == 1:
        assert _fields(result) == _fields(plain)


# The complement direction at St(16, 12) has rank at most 4, so the step at
# tau ||H||_F = t has condition number between sqrt(1 + t^2 / 4) and
# sqrt(1 + t^2): past CURVE_MAX_COND = 10 at t = 100 and 30, which take their
# own products, and within it from t = 9 on, where the curve takes over.
# At St(3, 3) the objective is constant and the direction is rounding noise,
# far from tangent, so a trial's step can be conditioned past the bound
# although the step the curve starts from is not: 9 of its 10 trials take
# their own products, against 5 if each trial were not checked.
@pytest.mark.parametrize(
    "shape, seed, stretch, mix, rho1, direct",
    [
        ((16, 12), 0, 3.0, (0.0, 1.0), 0.9, 1),
        ((16, 12), 0, 100.0, (0.0, 1.0), 0.9, 3),
        ((3, 3), 25942, 10410.615834562052, (0.0, 1.0), 0.9, 9),
    ],
    ids=["3.0-1", "100.0-3", "3x3-25942"],
)
def test_eig_backtrack_takes_products_until_the_curve_is_conditioned(
    shape, seed, stretch, mix, rho1, direct
):
    assert CURVE_MAX_COND == 10
    problem, point, direction, slope, c_ref = _eig_search(shape, seed, mix, "monotone")
    tau0 = stretch / frobenius_norm(direction)
    products = problem.products
    result = backtrack(problem, point, direction, slope, tau0, c_ref, rho1=rho1)
    assert result.accepted and result.nfe > direct
    assert problem.products - products == direct
