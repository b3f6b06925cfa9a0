"""Feasible-set machinery for matrices with orthonormal columns.

The feasible set St(n, p) is the set of ``n x p`` real matrices ``X`` with
``X^T X = I``.  Everything downstream (search directions, line searches, the
solver loop) works with :class:`StiefelPoint` values, which certify
feasibility at construction, so infeasible iterates cannot circulate.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .linalg import as_matrix, frobenius_norm, thin_svd

__all__ = [
    "FEASIBILITY_TOL",
    "FeasibilityError",
    "RankDeficientError",
    "StiefelPoint",
    "feasibility_error",
    "project",
    "is_tangent",
    "retract",
]

#: Largest ||X^T X - I||_F accepted when constructing a StiefelPoint.
FEASIBILITY_TOL = 1e-12

#: :func:`retract` tries the series only while ``||step^T step - I||_F`` is
#: below this: from here on the degree it needs exceeds 10, and the ``eigh``
#: polar factor is cheaper.
SERIES_CUTOFF = 0.05

#: The series is truncated at the smallest degree ``d >= 1`` with
#: ``||E||_F^(d+1) <= SERIES_TOL``, a bound on the candidate's Gram error.
SERIES_TOL = 1e-14

#: ``c_0..c_10`` of ``(1 + x)^(-1/2) = sum_k c_k x^k``, ``c_k = c_{k-1} (1/2 - k) / k``;
#: 10 is the largest degree used below :data:`SERIES_CUTOFF`.
_SERIES_COEFFS = tuple(accumulate(range(1, 11), lambda c, k: c * (0.5 - k) / k, initial=1.0))


class FeasibilityError(ValueError):
    """Raised when a matrix claimed to be feasible is not."""


class RankDeficientError(ValueError):
    """Raised by :func:`project` when a matrix's smallest singular value is
    negligible against its largest, so its polar factor is ill-determined."""


def feasibility_error(x) -> float:
    """Distance of ``X^T X`` from the identity, ``||X^T X - I||_F``.

    Parameters
    ----------
    x : array_like, shape (n, p)
        Tall matrix, ``n >= p``.  A NaN entry gives a NaN result.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got ndim={x.ndim}")
    n, p = x.shape
    if n < p:
        raise ValueError(f"expected rows >= cols, got shape {x.shape}")
    gram = x.T @ x
    gram.flat[:: p + 1] -= 1.0
    return frobenius_norm(gram)


class StiefelPoint:
    """An immutable feasible point.

    Parameters
    ----------
    x : array_like, shape (n, p)
        Matrix with (numerically) orthonormal columns.  It is always
        validated, copied and measured: ``||X^T X - I||_F`` must not exceed
        :data:`FEASIBILITY_TOL` or :class:`FeasibilityError` is raised — the
        constructor rejects rather than silently re-projecting (use
        :func:`project` for that).  No caller can supply the measurement.

    Attributes
    ----------
    x : numpy.ndarray
        The ``(n, p)`` array, marked read-only.
    feasibility : float
        Cached feasibility error of ``x``.
    """

    __slots__ = ("x", "feasibility")

    def __init__(self, x):
        arr = np.array(as_matrix(x, "x"))  # private copy, caller keeps theirs
        feas = feasibility_error(arr)  # refuses n < p
        if not feas <= FEASIBILITY_TOL:
            msg = f"matrix is not feasible: ||X^T X - I||_F = {feas:.3e} > {FEASIBILITY_TOL:.0e}"
            raise FeasibilityError(msg)
        arr.setflags(write=False)
        self.x, self.feasibility = arr, feas

    @classmethod
    def _fresh(cls, arr: np.ndarray, feas: float) -> StiefelPoint:
        """Wrap an array :func:`retract` just formed and certified, ``feas <=
        FEASIBILITY_TOL`` (NaN fails that test), without re-scanning it."""
        point = cls.__new__(cls)
        arr.setflags(write=False)
        point.x, point.feasibility = arr, feas
        return point

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StiefelPoint(shape={self.shape}, feasibility={self.feasibility:.3e})"


def project(x) -> StiefelPoint:
    """Nearest feasible point ``U V^T`` from the thin SVD ``X = U S V^T``.

    Meant for arbitrary input: unless ``sigma_min > 1e-12 * sigma_max``,
    :class:`RankDeficientError` is raised instead of returning a polar factor
    fixed by roundoff.  (:func:`retract` does not need this test: at a
    tangent step its singular values are all at least 1.)
    """
    u, sigma, v = thin_svd(x)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    if sigma_max == 0.0 or float(sigma[-1]) <= 1e-12 * sigma_max:
        raise RankDeficientError(
            "matrix is numerically rank deficient: sigma_min="
            f"{float(sigma[-1]) if sigma.size else 0.0:.3e} <= 1e-12 * "
            f"sigma_max={sigma_max:.3e}"
        )
    return StiefelPoint(u @ v.T)


def is_tangent(point: StiefelPoint, z, tol: float) -> bool:
    """Whether ``Z`` lies in the tangent space at ``point`` up to ``tol``.

    Tangency means ``X^T Z + Z^T X = 0``; the test is
    ``||X^T Z + Z^T X||_F <= tol``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != point.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {point.shape}")
    sym = point.x.T @ z
    sym = sym + sym.T
    return frobenius_norm(sym) <= tol


def _inverse_sqrt_series(e: np.ndarray, degree: int) -> np.ndarray:
    """``sum_{k <= degree} c_k E^k``, the truncated series of ``(I + E)^(-1/2)``,
    by Horner's rule: ``degree - 1`` products of ``p x p`` matrices, ``degree >= 1``."""
    p = e.shape[0]
    w = _SERIES_COEFFS[degree] * e
    for c in _SERIES_COEFFS[degree - 1 : 0 : -1]:
        w.flat[:: p + 1] += c
        w = w @ e
    w.flat[:: p + 1] += 1.0  # c_0
    return w


def retract(
    point: StiefelPoint, direction, tau: float
) -> tuple[StiefelPoint, bool, np.ndarray | None, float]:
    """Feasible curve step ``Z(tau) = proj(X - tau * H)`` with a cheap fast path.

    The projection is the polar factor ``step (step^T step)^(-1/2)`` of
    ``step = X - tau*H``.  With ``E = step^T step - I`` taken from the formed
    step (so it also absorbs the roundoff in ``X`` and in the tangency of
    ``H``), ``||E||_F`` picks one closed-form candidate:

    - Below 0.05 (:data:`SERIES_CUTOFF`), the fast path: the binomial series
      ``(I + E)^(-1/2) = I - E/2 + 3E^2/8 - ...`` truncated at the smallest
      degree ``d >= 1`` with ``||E||_F^(d+1) <= 1e-14`` (:data:`SERIES_TOL`),
      so ``d <= 10``, and the candidate ``step p_d(E)``.  It is the
      projection to about ``5e-14`` and costs ``p x p`` products only,
      besides the Gram matrix, the product with ``step`` and the certificate.
    - Otherwise the exact polar factor from the same Gram matrix.  For
      tangent ``H`` it is ``step^T step = I + tau^2 H^T H``, at least ``I``,
      so the polar factor is unique at every ``tau``, and with
      ``step^T step = V diag(lam) V^T`` it is ``step V diag(lam^(-1/2)) V^T``:
      one ``p x p`` symmetric eigendecomposition, a ``p^3`` and an ``n p^2``
      product, no SVD.  Its feasibility error grows like
      ``eps * lam_max / lam_min``, up to ``eps * (tau*||H||)^2``.

    The candidate is returned when its feasibility error is within
    :data:`FEASIBILITY_TOL`, the certificate of every point.  When it is not,
    or rounding has pushed ``lam[0]`` below 1/2, the thin SVD of ``step``
    rescues; the test suite's seeded sweep of tangent steps with
    ``tau*||H|| <= 10`` never needs it.

    Parameters
    ----------
    point : StiefelPoint
        Current feasible point ``X``.
    direction : array_like, shape (n, p)
        Tangent direction ``H`` at ``X`` (asserted in debug runs).
    tau : float
        Step length, finite and ``>= 0``.  ``tau = 0`` returns ``point`` itself.

    Returns
    -------
    (StiefelPoint, bool, numpy.ndarray or None, float)
        The new point; whether the fast path was taken (a ``bool``, true when
        the series was chosen or ``tau = 0``); the ``p x p`` factor ``W`` with
        ``point = step @ W``, ``p_d(E)`` or ``V diag(lam^(-1/2)) V^T``; and a
        bound on the condition number of ``step`` from its Gram matrix,
        ``sqrt((1 + ||E||_F) / (1 - ||E||_F))`` or ``sqrt(lam_max / lam_min)``.
        The last two are ``(None, inf)`` after the SVD rescue and at ``tau = 0``.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    h = as_matrix(direction, "direction")
    if h.shape != point.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {point.shape}")
    if __debug__:
        scale = max(1.0, frobenius_norm(h))
        assert is_tangent(point, h, 1e-8 * scale), (
            "retract called with a non-tangent direction"
        )
    if tau == 0.0:
        return point, True, None, math.inf
    x = point.x
    step = tau * h
    np.subtract(x, step, out=step)  # X - tau*H with one n x p array
    e = step.T @ step
    e.flat[:: e.shape[0] + 1] -= 1.0
    e_norm = frobenius_norm(e)
    series = e_norm < SERIES_CUTOFF
    if series:
        degree, bound = 1, e_norm * e_norm
        while bound > SERIES_TOL:
            degree, bound = degree + 1, bound * e_norm
        w = _inverse_sqrt_series(e, degree)
        cond = math.sqrt((1.0 + e_norm) / (1.0 - e_norm))
    else:
        # For tangent H the Gram matrix is I + tau^2 H^T H >= I, so lam[0] < 1/2
        # means rounding has swamped its small eigenvalues and lam^(-1/2)
        # would be wrong.
        e.flat[:: e.shape[0] + 1] += 1.0
        lam, v = np.linalg.eigh(e)
        w = (v * lam**-0.5) @ v.T if lam[0] >= 0.5 else None
        cond = math.sqrt(lam[-1] / lam[0]) if w is not None else math.inf
    if w is not None:
        candidate = step @ w
        feas = feasibility_error(candidate)
        if feas <= FEASIBILITY_TOL:
            return StiefelPoint._fresh(candidate, feas), series, w, cond
    # Certified rescue of a refused candidate: at large tau*||H|| the rounding
    # in V, about eps * lam_max / gap, spoils its small singular directions.
    u, _, v = thin_svd(step)
    return StiefelPoint(u @ v.T), False, None, math.inf
