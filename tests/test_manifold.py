"""Feasible-set machinery: feasibility measure, certified points, nearest-point
projection, tangency test, and the projected retraction with its fast path."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stiefelopt.manifold
from stiefelopt.manifold import SERIES_CUTOFF, _inverse_sqrt_series
from stiefelopt import (
    FEASIBILITY_TOL,
    FeasibilityError,
    RankDeficientError,
    StiefelPoint,
    feasibility_error,
    is_tangent,
    project,
    random_orthonormal,
    retract,
)
from stiefelopt.linalg import thin_svd


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


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(-16, 0), st.integers(0, 2**32 - 1))
def test_feasibility_error_is_bit_equal_to_the_dense_formula(n, p, exponent, seed):
    # Subtracting I on the diagonal in place gives the same bits as forming
    # X^T X - eye(p): the off-diagonal entries lose an exact 0.
    p = min(n, p)
    rng = np.random.default_rng(seed)
    x = random_orthonormal(n, p, rng) + 10.0**exponent * rng.standard_normal((n, p))
    assert feasibility_error(x) == float(np.linalg.norm(x.T @ x - np.eye(p)))


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


def test_point_always_measures_its_certificate():
    # X = ones(4, 2) has X^T X - I = [[3, 4], [4, 3]], of norm sqrt(50); no
    # caller's word can stand in for that measurement.
    with pytest.raises(TypeError):
        StiefelPoint(np.ones((4, 2)), feasibility=0.0)
    with pytest.raises(FeasibilityError, match="7.071e"):
        StiefelPoint(np.ones((4, 2)))


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
    # X = (1,0), H = (0,1): the step (1, -tau) has Gram error E = tau^2 and
    # projects to (1, -tau)/sqrt(1 + tau^2).  At tau = 0.1, E = 0.01 is
    # below the series cutoff, so the fast path returns the projection;
    # at tau = 0.3, E = 0.09 is beyond it and the polar factor from the
    # eigendecomposition of the Gram matrix 1 + tau^2 does.
    point = StiefelPoint(np.array([[1.0], [0.0]]))
    h = np.array([[0.0], [1.0]])
    for tau, series in [(0.1, True), (0.3, False)]:
        assert (tau * tau < SERIES_CUTOFF) == series
        new, fast, *_ = retract(point, h, tau)
        assert fast == series
        expected = np.array([[1.0], [-tau]]) / np.sqrt(1.0 + tau * tau)
        npt.assert_allclose(new.x, expected, atol=1e-14)


def test_retract_zero_step_returns_same_point():
    point = StiefelPoint(random_orthonormal(5, 2, 6))
    new, fast, w, cond = retract(point, np.zeros((5, 2)), 0.0)
    assert new is point and fast
    assert (w, cond) == (None, np.inf)


def test_retract_fast_path_fires_for_tiny_steps():
    # At tau = 1e-5 on a unit-scale direction the step's Gram error is about
    # 1e-10, so a degree-1 series certifies and no eigh is taken.
    rng = np.random.default_rng(7)
    point = StiefelPoint(random_orthonormal(9, 3, rng))
    h = _random_tangent(point, rng)
    h /= np.linalg.norm(h)
    new, fast, *_ = retract(point, h, 1e-5)
    assert fast
    assert new.feasibility < 1e-13
    exact = project(point.x - 1e-5 * h).x
    npt.assert_allclose(new.x, exact, atol=1e-13)


def test_retract_series_and_projection_agree_to_its_order():
    # The degree-d series candidate step p_d(E) is off the projection by
    # O(||E||^(d+1)) = O(tau^(2d+2)): halving tau divides the gap by
    # 2^(2d+2) (log2 ratio within half a unit of 2d + 2).
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(1, min(n, 6) + 1))
        point = StiefelPoint(random_orthonormal(n, p, rng))
        h = _random_tangent(point, rng)
        # ||E||_F = 0.04 at tau0: at tau0 / 2 the degree-3 gap, about 1e-9,
        # is still far above roundoff.
        tau0 = np.sqrt(0.04 / np.linalg.norm(h.T @ h))

        def gap(tau, degree):
            step = point.x - tau * h
            e = step.T @ step - np.eye(p)
            candidate = step @ _inverse_sqrt_series(e, degree)
            return np.linalg.norm(project(step).x - candidate)

        for degree in (1, 2, 3):
            ratio = np.log2(gap(tau0, degree) / gap(0.5 * tau0, degree))
            assert abs(ratio - (2 * degree + 2)) <= 0.5
        new, fast, *_ = retract(point, h, tau0)
        assert fast
        npt.assert_allclose(new.x, project(point.x - tau0 * h).x, rtol=0, atol=1e-13)


@pytest.mark.parametrize("degree", range(1, 7))
def test_inverse_sqrt_series_gram_error_scales_as_the_next_power(degree):
    # W = p_d(E) truncates (I + E)^(-1/2), so W (I + E) W - I = O(||E||^(d+1)),
    # bounded by ||E||_F^(d+1) and shrinking 2^(d+1)-fold when E halves.
    rng = np.random.default_rng(degree)
    a = rng.standard_normal((6, 6))
    direction = (a + a.T) / np.linalg.norm(a + a.T)

    def gram_error(scale):
        e = scale * direction
        w = _inverse_sqrt_series(e, degree)
        return np.linalg.norm(w @ (np.eye(6) + e) @ w - np.eye(6))

    errors = [gram_error(scale) for scale in (0.04, 0.02)]
    assert errors[0] <= 0.04 ** (degree + 1) and errors[1] <= 0.02 ** (degree + 1)
    assert abs(np.log2(errors[0] / errors[1]) - (degree + 1)) <= 0.2


def test_retract_series_corrects_the_drift_of_its_start():
    # E is read off the formed step, so it holds the start's own Gram error
    # as well as tau^2 H^T H: a certified start 5e-13 off orthonormality
    # takes the series at a tiny step, and the result is feasible to
    # roundoff (not merely within FEASIBILITY_TOL, as the start was) and
    # equal to the projection.
    rng = np.random.default_rng(13)
    x0 = random_orthonormal(40, 8, rng)
    s = rng.standard_normal((8, 8))
    s = s + s.T
    point = StiefelPoint(x0 @ (np.eye(8) + 2.5e-13 * s / np.linalg.norm(s)))
    assert 4e-13 <= point.feasibility <= 6e-13
    h = _random_tangent(point, rng)
    h /= np.linalg.norm(h)
    new, fast, *_ = retract(point, h, 1e-9)
    assert fast
    assert new.feasibility <= 1e-14
    npt.assert_allclose(new.x, project(point.x - 1e-9 * h).x, rtol=0, atol=1e-14)


def test_retract_takes_the_polar_factor_at_huge_steps():
    # X - tau*H has singular values sqrt(1 + tau^2) and 1, so a relative
    # rank threshold of 1e-12 would call it deficient at tau = 1e13; its
    # polar factor is still unique and feasible, and the closed form, not
    # the SVD rescue, gives it, with condition bound 1e13.
    point = StiefelPoint(np.eye(3, 2))
    h = np.zeros((3, 2))
    h[2, 0] = 1.0
    new, fast, w, cond = retract(point, h, 1e13)
    assert not fast and w is not None and cond == pytest.approx(1e13, rel=1e-12)
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


def _assert_certified_and_owned(point: StiefelPoint):
    """The point's array is read-only, C-ordered and owns its data (the
    problems' memo keeps only such arrays), and its certificate is exact."""
    x = point.x
    assert not x.flags.writeable and x.flags.c_contiguous and x.base is None
    assert x.dtype == np.float64
    assert point.feasibility == feasibility_error(x) <= FEASIBILITY_TOL


@settings(deadline=None)
@given(_tangent_steps())
def test_retract_always_returns_a_certified_point(case):
    point, h, tau = case
    new, *_ = retract(point, h, tau)
    assert new.shape == point.shape
    _assert_certified_and_owned(new)


@pytest.mark.parametrize("branch", ["series", "polar", "svd"])
def test_each_retract_branch_returns_a_certified_owned_point(branch, monkeypatch):
    # The series and polar candidates are certified in place, the SVD
    # rescue's result is copied; every branch hands back the same kind of
    # array.  The series and polar branches also return the factor W that
    # made the point from the step, and a bound on the step's condition
    # number; the rescue has neither.  The fast-path flag is a bool, which
    # the benchmark's tracer counts by identity.
    svd_calls = []

    def counting(x):
        svd_calls.append(x.shape)
        return thin_svd(x)

    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting)
    rng = np.random.default_rng(3)
    point = StiefelPoint(random_orthonormal(3, 3, rng))
    s = rng.standard_normal((3, 3))
    h = point.x @ (s - s.T)
    h /= np.linalg.norm(h)
    tau = {"series": 1e-3, "polar": 1.0, "svd": 1e11}[branch]
    new, fast, w, cond = retract(point, h, tau)
    assert type(fast) is bool and fast == (branch == "series")
    assert len(svd_calls) == (branch == "svd")
    _assert_certified_and_owned(new)
    step = point.x - tau * h
    if branch == "svd":
        assert (w, cond) == (None, np.inf)
    else:
        assert new.x.tobytes() == (step @ w).tobytes()
        assert cond >= np.linalg.cond(step) * (1 - 1e-12)


@st.composite
def _exact_steps(draw):
    """A point, a generic tangent direction and a step with tau*||H||
    log-uniform in [1e-8, 1e6]."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = StiefelPoint(random_orthonormal(n, p, rng))
    h = _random_tangent(point, rng)
    norm = np.linalg.norm(h)
    if norm == 0.0:  # n = p = 1: the only tangent is 0
        return point, h, 1.0
    return point, h, 10.0 ** rng.uniform(-8.0, 6.0) / norm


@settings(deadline=None, max_examples=300)
@given(_exact_steps())
def test_retract_exact_branch_is_the_projection(case):
    # Every branch, the series as well as the closed form, returns the polar
    # factor of X - tau*H, the point project() takes from the SVD.  For the
    # closed form, a square odd p gives the Gram matrix I + tau^2 H^T H an
    # eigenvalue 1 next to eigenvalues tau^2 larger; there the candidate
    # step V diag(lam^(-1/2)) V^T either meets the certificate or the SVD
    # rescue takes over.  (For a tall rank-deficient H the polar factor of
    # the rounded step itself moves by about 1e-16 * tau*||H||, so there the
    # two routes may differ by that.)
    point, h, tau = case
    new, *_ = retract(point, h, tau)
    npt.assert_allclose(new.x, project(point.x - tau * h).x, rtol=0, atol=1e-12)
    assert new.feasibility <= FEASIBILITY_TOL


@pytest.mark.parametrize("n,p", [(60, 30), (30, 30)])
def test_chained_exact_retractions_do_not_drift(n, p):
    # The closed form takes the Gram matrix of the formed step, so it also
    # corrects the feasibility error the last iterate left: both chains stay
    # below 4e-14, far inside FEASIBILITY_TOL.
    # The steps have ||tau^2 H^T H||_F in [0.1, 100], beyond the
    # series cutoff, so each one takes the closed form.
    rng = np.random.default_rng(11)
    point = StiefelPoint(random_orthonormal(n, p, rng))
    for _ in range(200):
        h = _random_tangent(point, rng)
        tau = 10.0 ** rng.uniform(-0.5, 1.0) / np.sqrt(np.linalg.norm(h.T @ h))
        point, fast, *_ = retract(point, h, tau)
        assert not fast
        assert point.feasibility <= 1e-13


@pytest.mark.parametrize("n,p", [(60, 30), (30, 30)])
def test_chained_series_retractions_do_not_drift(n, p):
    # The series takes E from the formed step, so each step also corrects
    # the feasibility error the last one left: 200 chained series steps,
    # with ||E||_F log-uniform in [1e-8, 0.03], stay certified below 1e-13.
    rng = np.random.default_rng(12)
    point = StiefelPoint(random_orthonormal(n, p, rng))
    for _ in range(200):
        h = _random_tangent(point, rng)
        tau = np.sqrt(10.0 ** rng.uniform(-8.0, np.log10(0.03)) / np.linalg.norm(h.T @ h))
        point, fast, *_ = retract(point, h, tau)
        assert fast
        assert feasibility_error(point.x) <= 1e-13


def test_retract_rescues_with_the_svd_when_the_closed_form_fails(monkeypatch):
    # At square St(3,3) and tau*||H|| = 1e11 the eigenvectors of the Gram
    # matrix are too coarse for the closed-form candidate's certificate, so
    # retract falls back to the SVD.
    calls = []

    def counting(x):
        calls.append(x)
        return thin_svd(x)

    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting)
    rng = np.random.default_rng(1)
    point = StiefelPoint(random_orthonormal(3, 3, rng))
    s = rng.standard_normal((3, 3))
    h = point.x @ (s - s.T)
    tau = 1e11 / np.linalg.norm(h)
    new, fast, *_ = retract(point, h, tau)
    assert not fast and len(calls) == 1
    assert feasibility_error(new.x) <= FEASIBILITY_TOL
    npt.assert_allclose(new.x, project(point.x - tau * h).x, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0 + 1e-13, 1.0 + 1e-6])
def test_retract_certifies_either_candidate_once(scale, monkeypatch):
    # One certificate, FEASIBILITY_TOL, for both closed-form candidates.  A
    # series candidate scaled by 1 + 1e-13 is about 3.5e-13 off orthonormality
    # and is still returned; one scaled by 1 + 1e-6 is refused and goes
    # straight to the SVD rescue.  Neither takes the eigh polar factor.
    rng = np.random.default_rng(5)
    point = StiefelPoint(random_orthonormal(7, 3, rng))
    s = rng.standard_normal((3, 3))
    h = point.x @ (s - s.T)
    h /= np.linalg.norm(h)
    calls = {"eigh": 0, "svd": 0}
    series, eigh = stiefelopt.manifold._inverse_sqrt_series, np.linalg.eigh

    def counting_eigh(a):
        calls["eigh"] += 1
        return eigh(a)

    def counting_svd(x):
        calls["svd"] += 1
        return thin_svd(x)

    monkeypatch.setattr(
        stiefelopt.manifold, "_inverse_sqrt_series", lambda e, d: scale * series(e, d)
    )
    monkeypatch.setattr(stiefelopt.manifold.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting_svd)
    new, fast, *_ = retract(point, h, 1e-3)
    assert calls["eigh"] == 0
    if scale < 1.0 + 1e-12:
        assert fast is True and calls["svd"] == 0
        assert 1e-13 < new.feasibility <= FEASIBILITY_TOL
    else:
        assert fast is False and calls["svd"] == 1
        npt.assert_allclose(new.x, project(point.x - 1e-3 * h).x, rtol=0, atol=1e-12)


def test_exact_branch_eigendecomposes_the_steps_gram_matrix(monkeypatch):
    # The series test has formed step^T step = I + tau^2 H^T H already; the
    # exact branch decomposes that matrix (not H^T H), whose eigenvalues are
    # at least 1 for a tangent H.
    seen = []
    eigh = np.linalg.eigh

    def recording(a):
        seen.append(a.copy())
        return eigh(a)

    monkeypatch.setattr(stiefelopt.manifold.np.linalg, "eigh", recording)
    rng = np.random.default_rng(21)
    point = StiefelPoint(random_orthonormal(9, 3, rng))
    k = rng.standard_normal((9, 1)) @ rng.standard_normal((1, 3))
    for h in (_random_tangent(point, rng), k - point.x @ (point.x.T @ k)):  # generic, rank 1
        tau = 3.0 / np.linalg.norm(h)
        seen.clear()
        _, fast, *_ = retract(point, h, tau)
        assert not fast and len(seen) == 1
        step = point.x - tau * h
        gram = step.T @ step
        npt.assert_allclose(seen[0], gram, rtol=0, atol=1e-14 * np.linalg.norm(gram))
        assert np.linalg.eigvalsh(seen[0])[0] >= 1.0 - 1e-12


def test_retract_needs_no_svd_rescue_up_to_ten(monkeypatch):
    # 2000 seeded tangent steps on St(n <= 39), full rank and rank deficient,
    # with tau*||H|| log-uniform in [1e-2, 10]: the Gram candidate certifies
    # every one.  Its error grows like eps * lam_max / lam_min, up to
    # eps * (tau*||H||)^2, so much larger steps may need the SVD rescue.  A
    # square rank-deficient draw is skipped: its complement part is zero, so
    # H would be bare roundoff.
    rescues = []

    def counting(x):
        rescues.append(x.shape)
        return thin_svd(x)

    monkeypatch.setattr(stiefelopt.manifold, "thin_svd", counting)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        p = int(rng.integers(1, n + 1))
        point = StiefelPoint(random_orthonormal(n, p, rng))
        rank = int(rng.integers(0, p + 1))
        k = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p))
        h = k - point.x @ (point.x.T @ k)
        if rank == p:
            s = rng.standard_normal((p, p))
            h += point.x @ (s - s.T)
        elif n == p:
            continue
        norm = np.linalg.norm(h)
        if norm == 0.0:
            continue
        new, *_ = retract(point, h, 10.0 ** rng.uniform(-2.0, 1.0) / norm)
        assert new.feasibility <= FEASIBILITY_TOL
    assert not rescues


def test_retract_survives_a_gram_matrix_swamped_by_rounding():
    # A rank-1 complement direction at tau*||H|| = 1.26e14 on St(4, 2): the
    # Gram matrix's small eigenvalue, 1 exactly, is lost in a rounding of
    # about 1e12 (on OpenBLAS eigh returns it negative), and its lam^(-1/2)
    # would be NaN with a RuntimeWarning.
    rng = np.random.default_rng(8)
    point = StiefelPoint(random_orthonormal(4, 2, rng))
    k = rng.standard_normal((4, 1)) @ rng.standard_normal((1, 2))
    h = k - point.x @ (point.x.T @ k)
    tau = 1.26e14 / np.linalg.norm(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, fast, *_ = retract(point, h, tau)
    assert not fast
    _assert_certified_and_owned(new)


@pytest.mark.skipif(not __debug__, reason="python -O compiles the assertion out")
def test_retract_asserts_a_tangent_direction():
    point = StiefelPoint(random_orthonormal(5, 2, 3))
    with pytest.raises(AssertionError, match="non-tangent"):
        retract(point, point.x, 0.1)  # X^T X + X^T X = 2 I, far from 0


def test_retract_validates_inputs():
    point = StiefelPoint(np.eye(4, 2))
    tangent = np.zeros((4, 2))
    for tau in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            retract(point, tangent, tau)
    with pytest.raises(ValueError, match="shape mismatch"):
        retract(point, np.zeros((4, 3)), 0.1)
