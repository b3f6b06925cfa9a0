"""Dense linear-algebra helpers shared by the manifold and benchmark code.

Conventions
-----------
* Matrices are ``numpy.float64`` arrays in C (row-major) order, and no
  routine mutates its inputs.
* Validation happens once, where an array enters from outside:
  :func:`as_matrix` (2-D, float64, C order, finite) runs on solver and
  problem inputs, on the objective's gradient, on a retraction's direction
  and in :func:`thin_svd`.  The arithmetic helpers :func:`frobenius_inner`
  and :func:`frobenius_norm` (one BLAS ``dot``) check only shapes, so the
  solve loop does not re-scan the arrays it has built; NaN in, NaN out.
* Randomness flows through ``numpy.random.Generator`` seeded with PCG64
  (``numpy.random.default_rng``), so a given integer seed reproduces the same
  matrices on every platform for a fixed numpy release.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_matrix",
    "as_generator",
    "frobenius_inner",
    "frobenius_norm",
    "thin_svd",
    "random_orthonormal",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array in C order.

    Parameters
    ----------
    a : array_like
        Input to validate.
    name : str, optional
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        The validated array (a view when ``a`` already qualifies).

    Raises
    ------
    ValueError
        If ``a`` is not 2-D or contains NaN/Inf entries.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_generator(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``seed`` may be ``None`` (fresh OS entropy), an integer, or an existing
    ``Generator`` (``default_rng`` returns it unchanged, so callers can share
    one stream).
    """
    return np.random.default_rng(seed)


def frobenius_inner(a, b) -> float:
    """Frobenius inner product ``<A, B> = sum_ij A_ij * B_ij``.

    Both arguments must have identical shapes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float((a * b).sum())


def frobenius_norm(a) -> float:
    """Frobenius norm ``||A||_F`` of a 2-D array, bit-equal to ``numpy.linalg.norm(a)``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"a must be 2-D, got ndim={a.ndim}")
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def thin_svd(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a tall (or square) matrix.

    Parameters
    ----------
    x : array_like, shape (n, p)
        Matrix with ``n >= p``.

    Returns
    -------
    u, sigma, v : numpy.ndarray
        ``u`` is ``(n, p)`` with orthonormal columns, ``sigma`` the ``p``
        singular values in non-increasing order and ``v`` the ``(p, p)``
        orthogonal factor, so ``u @ np.diag(sigma) @ v.T == x`` to roundoff.
    """
    x = as_matrix(x, "x")
    n, p = x.shape
    if n < p:
        raise ValueError(f"thin_svd expects rows >= cols, got shape {x.shape}")
    u, sigma, vt = np.linalg.svd(x, full_matrices=False)
    return u, sigma, vt.T


def random_orthonormal(n: int, p: int, rng=None) -> np.ndarray:
    """Draw an ``(n, p)`` matrix with orthonormal columns.

    A standard-normal matrix is drawn from ``rng`` and its thin-SVD
    orthogonal factor ``U @ V.T`` is returned, which is the orthonormal
    matrix nearest to the draw.

    Parameters
    ----------
    n, p : int
        Target shape, ``n >= p >= 1``.
    rng : None, int or numpy.random.Generator, optional
        Seed or generator (see :func:`as_generator`).
    """
    if p < 1 or n < p:
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    rng = as_generator(rng)
    u, _, v = thin_svd(rng.standard_normal((n, p)))
    return u @ v.T
