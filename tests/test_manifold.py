"""Feasible-set machinery: feasibility measure, certified points, nearest-point
projection, tangency test, and the projected retraction with its fast path."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelopt import (
    FEASIBILITY_TOL,
    TAYLOR_ACCEPT_TOL,
    FeasibilityError,
    RankDeficientError,
    StiefelPoint,
    feasibility_error,
    is_tangent,
    project,
    random_orthonormal,
    retract,
)


def _random_tangent(point: StiefelPoint, rng) -> np.ndarray:
    """Exactly tangent direction X S + (I - X X^T) K with S skew."""
    n, p = point.shape
    s = rng.standard_normal((p, p))
    s = s - s.T
    k = rng.standard_normal((n, p))
    return point.x @ s + (k - point.x @ (point.x.T @ k))


# -- feasibility_error ----------------------------------------------------------


def test_feasibility_error_hand_value():
    # X = 2 * I_{n x p}: X^T X - I = 3 I_p, whose norm is 3 sqrt(p).
    for n, p in [(4, 2), (6, 3)]:
        x = 2.0 * np.eye(n, p)
        assert feasibility_error(x) == pytest.approx(3.0 * np.sqrt(p), rel=1e-14)


def test_feasibility_error_zero_on_orthonormal():
    assert feasibility_error(np.eye(5, 3)) == 0.0
    assert feasibility_error(random_orthonormal(8, 3, 0)) <= 1e-14


def test_feasibility_error_rejects_wide():
    with pytest.raises(ValueError, match="rows >= cols"):
        feasibility_error(np.zeros((2, 3)))


# -- StiefelPoint ----------------------------------------------------------------


def test_point_accepts_feasible_and_caches_feasibility():
    x = random_orthonormal(6, 2, 1)
    point = StiefelPoint(x)
    assert point.shape == (6, 2) and point.n == 6 and point.p == 2
    assert point.feasibility == feasibility_error(x)
    assert point.feasibility <= FEASIBILITY_TOL


def test_point_rejects_infeasible_instead_of_projecting():
    x = np.eye(4, 2)
    x[0, 0] += 1e-6
    with pytest.raises(FeasibilityError, match="not feasible"):
        StiefelPoint(x)


def test_point_array_is_a_readonly_private_copy():
    x = np.eye(3, 2)
    point = StiefelPoint(x)
    x[0, 1] = 5.0  # caller's array mutates freely...
    assert point.feasibility <= FEASIBILITY_TOL
    npt.assert_array_equal(point.x, np.eye(3, 2))
    with pytest.raises(ValueError):
        point.x[0, 0] = 2.0  # ...the point's array does not


def test_point_rejects_wide():
    with pytest.raises(ValueError, match="rows >= cols"):
        StiefelPoint(np.eye(2, 3))


# -- project -----------------------------------------------------------------------


def test_project_diagonal_hand_case():
    # Column scalings drop out: the nearest feasible matrix keeps the axes.
    x = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    npt.assert_allclose(project(x).x, np.eye(3, 2), atol=1e-14)


def test_project_matches_polar_factor_oracle():
    # Independent route: X (X^T X)^{-1/2} via an eigendecomposition.
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal((9, 4))
        gram = x.T @ x
        w, q = np.linalg.eigh(gram)
        inv_sqrt = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
        npt.assert_allclose(project(x).x, x @ inv_sqrt, atol=1e-10)


def test_project_is_nearest_among_random_feasible_points():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 3))
    best = np.linalg.norm(x - project(x).x)
    for _ in range(100):
        q = random_orthonormal(7, 3, rng)
        assert best <= np.linalg.norm(x - q) + 1e-12


def test_project_fixes_feasible_points():
    q = random_orthonormal(10, 4, 4)
    npt.assert_allclose(project(q).x, q, atol=1e-12)


def test_project_rejects_rank_deficiency():
    col = np.arange(1.0, 6.0)
    with pytest.raises(RankDeficientError, match="rank deficient"):
        project(np.column_stack([col, 2.0 * col]))
    with pytest.raises(RankDeficientError):
        project(np.zeros((4, 2)))


# -- is_tangent ---------------------------------------------------------------------


def test_is_tangent_on_constructed_directions():
    rng = np.random.default_rng(5)
    point = StiefelPoint(random_orthonormal(8, 3, rng))
    z = _random_tangent(point, rng)
    assert is_tangent(point, z, 1e-10)
    assert not is_tangent(point, point.x, 1e-10)  # X itself is never tangent


def test_is_tangent_shape_mismatch_raises():
    point = StiefelPoint(np.eye(4, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        is_tangent(point, np.zeros((4, 3)), 1e-10)


# -- retract ---------------------------------------------------------------------------


def test_retract_hand_case_falls_back_to_projection():
    # X = (1,0), H = (0,1), tau = 0.1.  The quadratic candidate
    # (0.995, -0.1) has feasibility |0.995^2 + 0.01 - 1| = 2.5e-05, far
    # above the fast-path cutoff, so the result is (1,-0.1)/sqrt(1.01).
    point = StiefelPoint(np.array([[1.0], [0.0]]))
    h = np.array([[0.0], [1.0]])
    new, fast = retract(point, h, 0.1)
    assert not fast
    npt.assert_allclose(new.x, np.array([[1.0], [-0.1]]) / np.sqrt(1.01), atol=1e-14)


def test_retract_zero_step_returns_same_point():
    point = StiefelPoint(random_orthonormal(5, 2, 6))
    new, fast = retract(point, np.zeros((5, 2)), 0.0)
    assert new is point and fast


def test_retract_fast_path_fires_for_tiny_steps():
    # Candidate feasibility is O(tau^3), so tau = 1e-5 on a unit-scale
    # direction lands far below the cutoff and skips the SVD.
    rng = np.random.default_rng(7)
    point = StiefelPoint(random_orthonormal(9, 3, rng))
    h = _random_tangent(point, rng)
    h /= np.linalg.norm(h)
    new, fast = retract(point, h, 1e-5)
    assert fast
    assert new.feasibility < TAYLOR_ACCEPT_TOL
    exact = project(point.x - 1e-5 * h).x
    npt.assert_allclose(new.x, exact, atol=1e-13)


def test_retract_fast_and_exact_paths_agree_to_third_order():
    # ||proj(X - tau H) - candidate(tau)|| ~ c tau^3: halving tau divides
    # the gap by ~8 (log2 ratio within [2.5, 3.5]).
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(1, min(n, 6) + 1))
        point = StiefelPoint(random_orthonormal(n, p, rng))
        h = _random_tangent(point, rng)

        def gap(tau):
            x = point.x
            candidate = x - tau * h - 0.5 * tau * tau * (x @ (h.T @ h))
            return np.linalg.norm(project(x - tau * h).x - candidate)

        ratio = np.log2(gap(1e-3) / gap(5e-4))
        assert 2.5 <= ratio <= 3.5


def test_retract_takes_the_polar_factor_at_huge_steps():
    # X - tau*H has singular values sqrt(1 + tau^2) and 1, so a relative
    # rank threshold of 1e-12 would call it deficient at tau = 1e13; its
    # polar factor is still unique and feasible.
    point = StiefelPoint(np.eye(3, 2))
    h = np.zeros((3, 2))
    h[2, 0] = 1.0
    new, fast = retract(point, h, 1e13)
    assert not fast
    npt.assert_allclose(new.x, [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    assert feasibility_error(new.x) <= FEASIBILITY_TOL


@st.composite
def _tangent_steps(draw):
    """A point, a tangent direction (full rank or of rank ``r < p``) and a
    log-uniform step in [1e-8, 1e15]."""
    n = draw(st.integers(1, 10))
    p = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = StiefelPoint(random_orthonormal(n, p, rng))
    rank = draw(st.integers(0, p))
    if rank == p:
        h = _random_tangent(point, rng)
    else:  # complement-only direction (I - X X^T) K with rank(K) = rank
        k = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        h = k - point.x @ (point.x.T @ k)
    # Exponents come from the seeded stream: hypothesis's own floats favour
    # simple values and would rarely reach the large steps.
    h *= 10.0 ** rng.uniform(-3.0, 3.0)
    return point, h, 10.0 ** rng.uniform(-8.0, 15.0)


@settings(deadline=None)
@given(_tangent_steps())
def test_retract_always_returns_a_certified_point(case):
    point, h, tau = case
    new, _ = retract(point, h, tau)
    assert new.shape == point.shape
    assert feasibility_error(new.x) <= FEASIBILITY_TOL


def test_retract_validates_inputs():
    point = StiefelPoint(np.eye(4, 2))
    tangent = np.zeros((4, 2))
    with pytest.raises(ValueError, match="tau"):
        retract(point, tangent, -0.1)
    with pytest.raises(ValueError, match="shape mismatch"):
        retract(point, np.zeros((4, 3)), 0.1)
