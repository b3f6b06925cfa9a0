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

from helpers import skew_factor, tangent_parts, traced_peak


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
    npt.assert_array_equal(skew_factor(point, grad), [[0.0, -4.0], [4.0, 0.0]])
    # ||A||^2 = 32, so the pure-canonical slope is -16; the complement
    # part contributes -(||G||^2 - ||X^T G||^2) = -(25 - 9) = -16 per beta.
    for (alpha, beta), slope in {(1.0, 0.0): -16.0, (1.0, 1.0): -32.0, (0.5, 0.25): -12.0}.items():
        split = gradient_split(point, grad, alpha, beta)
        npt.assert_array_equal(split.direction, [[0.0], [4.0 * (alpha + beta)]])
        assert split.canonical_norm == split.complement_norm == 4.0
        assert descent_derivative(split, alpha, beta) == pytest.approx(slope)


# -- algebraic structure -------------------------------------------------------------


def test_skew_factor_is_antisymmetric_and_generates_canonical():
    rng = np.random.default_rng(0)
    for _ in range(20):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        skew = skew_factor(point, grad)
        scale = max(1.0, frobenius_norm(skew))
        assert frobenius_norm(skew + skew.T) <= 1e-12 * scale
        npt.assert_allclose(skew @ point.x, split.direction, atol=1e-12 * scale)


def test_both_components_and_mixes_are_tangent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        point, grad = _random_case(rng)
        grad /= frobenius_norm(grad)
        for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.4)):
            assert is_tangent(point, gradient_split(point, grad, alpha, beta).direction, 1e-10)


def test_norm_identity_links_skew_and_canonical():
    # ||A||^2 = 2 ||canonical||^2 - ||X^T G - G^T X||^2, which pins
    # ||canonical|| <= ||A|| <= sqrt(2) ||canonical||.
    rng = np.random.default_rng(2)
    for _ in range(50):
        point, grad = _random_case(rng)
        split = gradient_split(point, grad)
        skew_sq = frobenius_norm(skew_factor(point, grad)) ** 2
        can_sq = split.canonical_norm**2
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
    assert frobenius_norm(skew_factor(point, grad)) <= 1e-13
    assert gradient_split(point, grad).canonical_norm <= 1e-13
    # A non-symmetric M leaves both strictly nonzero.
    grad = point.x @ np.triu(np.ones((3, 3)), k=1)
    assert frobenius_norm(skew_factor(point, grad)) > 0.1
    assert gradient_split(point, grad).canonical_norm > 0.1


# -- mixed direction -----------------------------------------------------------------


@st.composite
def _plain_split_cases(draw):
    """A point, a gradient (C- or F-ordered), square shapes among them, and a mix."""
    n = draw(st.integers(1, 40))
    p = n if draw(st.booleans()) else draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = StiefelPoint(random_orthonormal(n, p, rng))
    grad = rng.standard_normal((n, p))
    mix = draw(st.sampled_from([(1.0, 0.0), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0), (2.0, 0.6)]))
    return point, np.asfortranarray(grad) if draw(st.booleans()) else grad, mix


@settings(deadline=None, max_examples=200)
@given(_plain_split_cases())
def test_split_matches_the_literal_formulas(case):
    # The norms are compared squared: at n = p, where P = 0, ||P|| is the
    # root of a difference of two rounded squares.  Only the squares enter
    # the slope and the skew norm.
    point, grad, (alpha, beta) = case
    canonical, complement = tangent_parts(point, grad)
    split = gradient_split(point, grad, alpha, beta)
    g_norm = max(frobenius_norm(grad), np.finfo(float).tiny)
    h = alpha * canonical + beta * complement
    assert frobenius_norm(split.direction - h) <= 1e-13 * g_norm
    assert abs(split.canonical_norm**2 - frobenius_norm(canonical) ** 2) <= 1e-13 * g_norm**2
    assert abs(split.complement_norm**2 - frobenius_norm(complement) ** 2) <= 1e-13 * g_norm**2


@pytest.mark.parametrize("n, p", [(100, 20), (2000, 10)])
def test_default_mix_is_bit_equal_to_the_canonical_formula(n, p):
    # G^T X enters as a C-ordered copy: at St(100, 20) OpenBLAS sums the
    # transposed view in another order, and the bits of H would change.
    rng = np.random.default_rng(n)
    point = StiefelPoint(random_orthonormal(n, p, rng))
    g = rng.standard_normal((n, p))
    x = point.x
    expected = g - x @ (x.T @ g).T.copy()
    split = gradient_split(point, g)
    assert split.direction.tobytes() == expected.tobytes()
    assert split.canonical_norm == frobenius_norm(expected)


def test_split_makes_one_n_by_p_array():
    # The direction returned is the only n x p array made: X^T G is p x p
    # and its product with X is overwritten by G minus it, then scaled.
    n, p = 2000, 10
    rng = np.random.default_rng(0)
    point = StiefelPoint(random_orthonormal(n, p, rng))
    grad = rng.standard_normal((n, p))
    split, peak = traced_peak(lambda: gradient_split(point, grad, 0.5, 0.5))
    assert split.direction.shape == (n, p)
    assert peak <= 1.5 * 8 * n * p


# -- descent derivative -----------------------------------------------------------------


def test_descent_derivative_equals_minus_inner_product():
    rng = np.random.default_rng(5)
    for _ in range(30):
        point, grad = _random_case(rng)
        alpha = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        canonical, complement = tangent_parts(point, grad)
        h = alpha * canonical + beta * complement
        dd = descent_derivative(gradient_split(point, grad, alpha, beta), alpha, beta)
        scale = max(1.0, abs(dd))
        assert dd == pytest.approx(-frobenius_inner(grad, h), abs=1e-10 * scale)


def test_descent_derivative_respects_certified_bound():
    rng = np.random.default_rng(6)
    for _ in range(200):
        point, grad = _random_case(rng)
        alpha = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        dd = descent_derivative(gradient_split(point, grad, alpha, beta), alpha, beta)
        bound = -0.5 * alpha * frobenius_norm(skew_factor(point, grad)) ** 2
        assert dd <= bound + 1e-10


def test_descent_derivative_matches_finite_difference_along_curve():
    # Quadratic objectives on St(4..12, p <= 6), alpha down to 0.001.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(1, min(n, 6) + 1))
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
        alpha = float(rng.uniform(0.001, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        split = gradient_split(point, grad, alpha, beta)
        h = split.direction
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
    point, grad, alpha, beta = case
    split = gradient_split(point, grad, alpha, beta)
    assert split.skew_norm == pytest.approx(frobenius_norm(skew_factor(point, grad)), rel=1e-12)


@settings(deadline=None)
@given(_split_cases())
def test_descent_derivative_is_never_positive(case):
    # Includes alpha = 0, where only the complement part descends.
    point, grad, alpha, beta = case
    dd = descent_derivative(gradient_split(point, grad, alpha, beta), alpha, beta)
    canonical, complement = tangent_parts(point, grad)
    h = alpha * canonical + beta * complement
    assert dd <= 0.0
    assert dd == pytest.approx(
        -frobenius_inner(grad, h), abs=1e-10 * max(1.0, frobenius_norm(grad) ** 2)
    )
