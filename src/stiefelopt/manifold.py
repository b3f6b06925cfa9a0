"""Feasible-set machinery for matrices with orthonormal columns.

The feasible set St(n, p) is the set of ``n x p`` real matrices ``X`` with
``X^T X = I``.  Everything downstream (search directions, line searches, the
solver loop) works with :class:`StiefelPoint` values, which certify
feasibility at construction, so infeasible iterates cannot circulate.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, frobenius_norm, thin_svd

__all__ = [
    "FEASIBILITY_TOL",
    "TAYLOR_ACCEPT_TOL",
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

#: Acceptance threshold for the quadratic fast path in :func:`retract`.
#: Fixed by design, not a tunable: candidates above it fall back to the
#: SVD projection.
TAYLOR_ACCEPT_TOL = 1e-13


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
    return float(np.linalg.norm(gram - np.eye(p)))


class StiefelPoint:
    """An immutable feasible point.

    Parameters
    ----------
    x : array_like, shape (n, p)
        Matrix with (numerically) orthonormal columns.
    feasibility : float, optional
        Precomputed ``||X^T X - I||_F``; recomputed when omitted.  Either
        way the value must not exceed :data:`FEASIBILITY_TOL` or
        :class:`FeasibilityError` is raised — the constructor rejects
        rather than silently re-projecting (use :func:`project` for that).

    Attributes
    ----------
    x : numpy.ndarray
        The ``(n, p)`` array, marked read-only.
    feasibility : float
        Cached feasibility error of ``x``.
    """

    __slots__ = ("x", "feasibility")

    def __init__(self, x, feasibility: float | None = None):
        arr = np.array(as_matrix(x, "x"))  # private copy, caller keeps theirs
        n, p = arr.shape
        if n < p:
            raise ValueError(f"expected rows >= cols, got shape {arr.shape}")
        feas = feasibility_error(arr) if feasibility is None else float(feasibility)
        if not feas <= FEASIBILITY_TOL:
            raise FeasibilityError(
                f"matrix is not feasible: ||X^T X - I||_F = {feas:.3e} "
                f"> {FEASIBILITY_TOL:.0e}"
            )
        arr.setflags(write=False)
        self.x = arr
        self.feasibility = feas

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


def retract(point: StiefelPoint, direction, tau: float) -> tuple[StiefelPoint, bool]:
    """Feasible curve step ``Z(tau) = proj(X - tau * H)`` with a cheap fast path.

    The quadratic candidate ``X - tau*H - (tau^2/2) * X (H^T H)`` agrees with
    the SVD projection through second order in ``tau``.  When its feasibility
    error is below :data:`TAYLOR_ACCEPT_TOL` it is returned directly and the
    SVD is skipped; otherwise the exact projection, the polar factor
    ``U V^T`` of ``X - tau*H = U S V^T``, is computed.  For tangent ``H`` the
    Gram ``(X - tau*H)^T (X - tau*H) = I + tau^2 H^T H`` is at least ``I``,
    so that factor is unique at every ``tau``.

    Parameters
    ----------
    point : StiefelPoint
        Current feasible point ``X``.
    direction : array_like, shape (n, p)
        Tangent direction ``H`` at ``X`` (asserted in debug runs).
    tau : float
        Step length, ``tau >= 0``.  ``tau = 0`` returns ``point`` itself.

    Returns
    -------
    (StiefelPoint, bool)
        The new point and whether the fast path was taken.
    """
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    h = as_matrix(direction, "direction")
    if h.shape != point.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {point.shape}")
    if __debug__:
        scale = max(1.0, frobenius_norm(h))
        assert is_tangent(point, h, 1e-8 * scale), (
            "retract called with a non-tangent direction"
        )
    if tau == 0.0:
        return point, True
    x = point.x
    step = x - tau * h
    candidate = step - (0.5 * tau * tau) * (x @ (h.T @ h))
    feas = feasibility_error(candidate)
    if feas < TAYLOR_ACCEPT_TOL:
        return StiefelPoint(candidate, feasibility=feas), True
    u, _, v = thin_svd(step)
    return StiefelPoint(u @ v.T), False
