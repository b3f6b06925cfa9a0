"""Dense linear-algebra helpers: coercion, inner products, thin SVD and
random orthonormal draws."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelopt import (
    as_generator,
    as_matrix,
    frobenius_inner,
    frobenius_norm,
    random_orthonormal,
    thin_svd,
)


# -- as_matrix / as_generator -------------------------------------------------


def test_as_matrix_coerces_lists_to_float64_c_order():
    arr = as_matrix([[1, 2], [3, 4]])
    assert arr.dtype == np.float64
    assert arr.flags["C_CONTIGUOUS"]
    npt.assert_array_equal(arr, [[1.0, 2.0], [3.0, 4.0]])


def test_as_matrix_rejects_wrong_ndim_and_nonfinite():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        as_matrix([[np.inf, 0.0]])


def test_as_matrix_uses_name_in_errors():
    with pytest.raises(ValueError, match="grad"):
        as_matrix([1.0], name="grad")


def test_as_generator_passes_generators_through():
    rng = np.random.default_rng(3)
    assert as_generator(rng) is rng


def test_as_generator_seed_is_reproducible():
    a = as_generator(42).standard_normal(5)
    b = as_generator(42).standard_normal(5)
    npt.assert_array_equal(a, b)
    assert isinstance(as_generator(None), np.random.Generator)


# -- Frobenius inner product and norm -----------------------------------------


def test_frobenius_inner_hand_values():
    eye = np.eye(2)
    assert frobenius_inner(eye, eye) == 2.0
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_inner(m, m) == 30.0  # 1 + 4 + 9 + 16


def test_frobenius_inner_matches_double_loop():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        brute = sum(
            a[i, j] * b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1])
        )
        assert frobenius_inner(a, b) == pytest.approx(brute, rel=1e-14)


def test_frobenius_inner_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        frobenius_inner(np.eye(2), np.eye(3))


def test_frobenius_norm_hand_value_and_consistency():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 2))
    assert frobenius_norm(a) == pytest.approx(np.sqrt(frobenius_inner(a, a)), rel=1e-14)


@st.composite
def _norm_inputs(draw):
    """A 2-D array in C order, F order, as a strided view or as a transposed
    view, with entries scaled by 10**k and, sometimes, one NaN or +-inf planted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    base = rng.standard_normal((2 * rows, 3 * cols)) * 10.0 ** draw(st.integers(-150, 150))
    layout = draw(st.sampled_from(["C", "F", "strided", "transposed"]))
    if layout == "strided":
        a = base[::2, 1::3]
    elif layout == "transposed":
        a = base[:rows, :cols].T
    else:
        a = np.array(base[:rows, :cols], order=layout)
    special = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if special is not None:
        a[draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))] = special
    return a


@settings(deadline=None, max_examples=300)
@given(_norm_inputs())
def test_frobenius_norm_is_bit_equal_to_numpy_norm(a):
    # One dot of the array flattened in memory order: numpy.linalg.norm's own
    # path for a real array and no ord, so the bits agree whatever the layout.
    got, want = frobenius_norm(a), float(np.linalg.norm(a))
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


# -- thin SVD ------------------------------------------------------------------


def test_thin_svd_reconstructs_and_orders():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal((8, 3))
        u, sigma, v = thin_svd(x)
        assert u.shape == (8, 3) and sigma.shape == (3,) and v.shape == (3, 3)
        npt.assert_allclose(u @ np.diag(sigma) @ v.T, x, atol=1e-12)
        npt.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
        npt.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
        assert np.all(sigma[:-1] >= sigma[1:]) and np.all(sigma >= 0)


def test_thin_svd_diagonal_hand_case():
    # X = [[2,0],[0,3],[0,0]] has singular values {3, 2}.
    x = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    _, sigma, _ = thin_svd(x)
    npt.assert_allclose(sigma, [3.0, 2.0], atol=1e-14)


def test_thin_svd_rejects_wide_matrices():
    with pytest.raises(ValueError, match="rows >= cols"):
        thin_svd(np.zeros((2, 3)))


# -- random orthonormal draws ---------------------------------------------------


def test_random_orthonormal_is_feasible():
    rng = np.random.default_rng(9)
    for n, p in [(1, 1), (5, 1), (7, 3), (10, 10)]:
        q = random_orthonormal(n, p, rng)
        assert q.shape == (n, p)
        npt.assert_allclose(q.T @ q, np.eye(p), atol=1e-13)


def test_random_orthonormal_scalar_case_is_sign():
    vals = {float(random_orthonormal(1, 1, seed)[0, 0]) for seed in range(20)}
    assert vals <= {1.0, -1.0}
    assert len(vals) == 2  # both signs occur over a few seeds


def test_random_orthonormal_seeded_determinism():
    npt.assert_array_equal(random_orthonormal(6, 2, 5), random_orthonormal(6, 2, 5))


def test_random_orthonormal_invalid_shapes_raise():
    with pytest.raises(ValueError, match="n >= p >= 1"):
        random_orthonormal(3, 0)
    with pytest.raises(ValueError, match="n >= p >= 1"):
        random_orthonormal(2, 3)

