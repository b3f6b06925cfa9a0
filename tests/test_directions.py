"""Gradient splitting, the skew factor, mixed search directions, and the
closed-form directional derivative along the projected curve."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stiefelopt import (
    CallableObjective,
    StiefelPoint,
    descent_derivative,
    frobenius_inner,
    frobenius_norm,
    gradient_split,
    is_tangent,
    project,
    random_orthonormal,
    retract,
)

from stiefelopt.directions import GradientSplit, _mix

from helpers import skew_factor, traced_peak


def _random_case(rng, n=None, p=None):
    n = int(rng.integers(3, 15)) if n is None else n
    p = int(rng.integers(1, min(n, 6) + 1)) if p is None else p
    point = StiefelPoint(random_orthonormal(n, p, rng))
    grad = rng.standard_normal((n, p))
    return point, grad


# -- hand-computed split ----------------------------------------------------------


def test_split_hand_values():
    # X = (1,0), G = (3,4): G^T X = 3, so both tangent components equal
    # (0,4); A = G X^T - X G^T has entries +-4 off the diagonal.
    point = StiefelPoint(np.array([[1.0], [0.0]]))
    grad = np.array([[3.0], [4.0]])
    split = gradient_split(point, grad)
    npt.assert_array_equal(split.canonical, [[0.0], [4.0]])
    npt.assert_array_equal(split.complement, [[0.0], [4.0]])
    npt.assert_array_equal(skew_factor(point, grad), [[0.0, -4.0], [4.0, 0.0]])
    # ||A||^2 = 32, so the pure-canonical slope is -16; the complement
    # part contributes -(||G||^2 - ||X^T G||^2) = -(25 - 9) = -16 per beta.
    assert descent_derivative(split, 1.0, 0.0) == pytest.approx(-16.0)
    assert descent_derivative(split, 1.0, 1.0) == pytest.approx(-32.0)
    assert descent_derivative(split, 0.5, 0.25) == pytest.approx(-12.0)


# -- algebraic structure -------------------------------------------------------------


def test_skew_factor_is_antisymmetric_and_generates_canonical():
    rng = np.random.default_rng(0)
    for _ in range(20):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        skew = skew_factor(point, grad)
        scale = max(1.0, frobenius_norm(skew))
        assert frobenius_norm(skew + skew.T) <= 1e-12 * scale
        npt.assert_allclose(skew @ point.x, split.canonical, atol=1e-12 * scale)


def test_both_components_and_mixes_are_tangent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        point, grad = _random_case(rng)
        grad /= frobenius_norm(grad)
        split = gradient_split(point, grad)
        assert is_tangent(point, split.canonical, 1e-10)
        assert is_tangent(point, split.complement, 1e-10)
        assert is_tangent(point, _mix(split, 0.6, 0.4), 1e-10)


def test_norm_identity_links_skew_and_canonical():
    # ||A||^2 = 2 ||canonical||^2 - ||X^T G - G^T X||^2, which pins
    # ||canonical|| <= ||A|| <= sqrt(2) ||canonical||.
    rng = np.random.default_rng(2)
    for _ in range(50):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        skew_sq = frobenius_norm(skew_factor(point, grad)) ** 2
        can_sq = frobenius_norm(split.canonical) ** 2
        xtg = point.x.T @ grad
        small_sq = frobenius_norm(xtg - xtg.T) ** 2
        assert skew_sq == pytest.approx(2.0 * can_sq - small_sq, rel=1e-10, abs=1e-12)
        assert can_sq <= skew_sq + 1e-10
        assert skew_sq <= 2.0 * can_sq + 1e-10


def test_stationarity_skew_vanishes_iff_canonical_does():
    # G = X M for symmetric M makes X^T G symmetric: both measures vanish.
    rng = np.random.default_rng(3)
    point = StiefelPoint(random_orthonormal(8, 3, rng))
    m = rng.standard_normal((3, 3))
    grad = point.x @ (m + m.T)
    split = gradient_split(point, grad)
    assert frobenius_norm(skew_factor(point, grad)) <= 1e-13
    assert frobenius_norm(split.canonical) <= 1e-13
    # A non-symmetric M leaves both strictly nonzero.
    grad = point.x @ np.triu(np.ones((3, 3)), k=1)
    split = gradient_split(point, grad)
    assert frobenius_norm(skew_factor(point, grad)) > 0.1
    assert frobenius_norm(split.canonical) > 0.1


# -- mixed direction -----------------------------------------------------------------


@st.composite
def _mix_cases(draw):
    """Two parts (C- or F-ordered, some entries signed zeros) and weights
    that include 0 and -0."""
    n = draw(st.integers(1, 9))
    p = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(2):
        part = rng.standard_normal((n, p))
        part[rng.random((n, p)) < 0.3] = draw(st.sampled_from([0.0, -0.0]))
        parts.append(np.asfortranarray(part) if draw(st.booleans()) else part)
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-4.0, 4.0))
    return parts, draw(weight), draw(weight)


@settings(deadline=None, max_examples=200)
@given(_mix_cases())
def test_mix_is_bit_equal_to_the_plain_formula(case):
    (canonical, complement), alpha, beta = case
    split = GradientSplit(canonical, complement, 0.0, 0.0)  # _mix reads only the parts
    expected = alpha * canonical + beta * complement
    assert _mix(split, alpha, beta).tobytes() == expected.tobytes()


@st.composite
def _plain_split_cases(draw):
    """A point and a gradient (C- or F-ordered), square shapes among them."""
    n = draw(st.integers(1, 40))
    p = n if draw(st.booleans()) else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = StiefelPoint(random_orthonormal(n, p, rng))
    grad = rng.standard_normal((n, p))
    return point, np.asfortranarray(grad) if draw(st.booleans()) else grad


@settings(deadline=None, max_examples=200)
@given(_plain_split_cases())
def test_split_parts_match_the_plain_formulas(case):
    # Both parts come from the one product X^T G; each is checked against its
    # own two-product formula.
    point, grad = case
    x = point.x
    split = gradient_split(point, grad)
    scale = 1e-13 * max(frobenius_norm(grad), np.finfo(float).tiny)
    assert frobenius_norm(split.canonical - (grad - x @ (grad.T @ x))) <= scale
    assert frobenius_norm(split.complement - (grad - x @ (x.T @ grad))) <= scale


def test_split_holds_no_third_n_by_p_array():
    # The two parts returned are the only n x p arrays made: X^T G is p x p
    # and each part's product with X is overwritten by G minus it.
    n, p = 2000, 10
    rng = np.random.default_rng(0)
    point = StiefelPoint(random_orthonormal(n, p, rng))
    grad = rng.standard_normal((n, p))
    split, peak = traced_peak(lambda: gradient_split(point, grad))
    assert split.canonical.shape == split.complement.shape == (n, p)
    assert peak <= 2.5 * 8 * n * p


# -- descent derivative -----------------------------------------------------------------


def test_descent_derivative_equals_minus_inner_product():
    rng = np.random.default_rng(5)
    for _ in range(30):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        alpha = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        h = _mix(split, alpha, beta)
        dd = descent_derivative(split, alpha, beta)
        scale = max(1.0, abs(dd))
        assert dd == pytest.approx(-frobenius_inner(grad, h), abs=1e-10 * scale)


def test_descent_derivative_respects_certified_bound():
    rng = np.random.default_rng(6)
    for _ in range(200):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        alpha = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        dd = descent_derivative(split, alpha, beta)
        bound = -0.5 * alpha * frobenius_norm(skew_factor(point, grad)) ** 2
        assert dd <= bound + 1e-10


def test_descent_derivative_matches_finite_difference_along_curve():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, p = 10, 3
        point = StiefelPoint(random_orthonormal(n, p, rng))
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        lin = rng.standard_normal((n, p))
        objective = CallableObjective(
            fun=lambda x, m=m, lin=lin: float(np.sum(x * (m @ x)) + np.sum(lin * x)),
            grad=lambda x, m=m, lin=lin: 2.0 * (m @ x) + lin,
            shape=(n, p),
        )
        grad = objective.gradient(point.x)
        split = gradient_split(point, grad)
        alpha = float(rng.uniform(0.1, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        h = _mix(split, alpha, beta)
        dd = descent_derivative(split, alpha, beta)
        tau = 1e-6
        forward, *_ = retract(point, h, tau)
        backward, *_ = retract(point, -h, tau)
        fd = (objective.value(forward.x) - objective.value(backward.x)) / (2.0 * tau)
        assert fd == pytest.approx(dd, rel=1e-7, abs=1e-10)


def test_split_and_derivative_validate_shapes():
    point = StiefelPoint(np.eye(4, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        gradient_split(point, np.zeros((4, 3)))


# -- properties over random draws ---------------------------------------------------


@st.composite
def _split_cases(draw):
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, n))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0))
    assume(alpha + beta > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = StiefelPoint(random_orthonormal(n, p, rng))
    return point, rng.standard_normal((n, p)), alpha, beta


@settings(deadline=None)
@given(_split_cases())
def test_skew_norm_matches_the_skew_factor(case):
    point, grad, _, _ = case
    split = gradient_split(point, grad)
    assert split.skew_norm == pytest.approx(frobenius_norm(skew_factor(point, grad)), rel=1e-12)


@settings(deadline=None)
@given(_split_cases())
def test_descent_derivative_is_never_positive(case):
    # Includes alpha = 0, where only the complement part descends.
    point, grad, alpha, beta = case
    split = gradient_split(point, grad)
    dd = descent_derivative(split, alpha, beta)
    h = alpha * split.canonical + beta * split.complement
    assert dd <= 0.0
    assert dd == pytest.approx(
        -frobenius_inner(grad, h), abs=1e-10 * max(1.0, frobenius_norm(grad) ** 2)
    )
