"""The search direction built from the Euclidean gradient at a feasible point.

Given the ambient gradient ``G`` of the objective at ``X`` and ``M = X^T G``,
two tangent descent candidates are available:

* ``C = G - X G^T X = G - X M^T``   (manifold gradient in the canonical metric)
* ``P = (I - X X^T) G = G - X M``   (component of ``G`` orthogonal to span(X))

Both can be written through the skew matrix ``A = G X^T - X G^T``
(``A X = C``, ``A (I - X X^T) = -X P^T``), so at a feasible ``X``,
``||A||_F^2 = ||C||_F^2 + ||P||_F^2``.  The solver steps along the mix
``H = alpha*C + beta*P``, a descent direction for ``alpha > 0``,
``beta >= 0`` whose directional derivative along the projected curve is
:func:`descent_derivative`.  It reads only ``H`` and the two norms, so the
split forms ``H`` alone and never the ``n x n`` matrix ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .manifold import StiefelPoint

__all__ = ["GradientSplit", "gradient_split", "descent_derivative"]


@dataclass(frozen=True)
class GradientSplit:
    """The mixed direction at a point and the norms of its two parts.

    Attributes
    ----------
    direction : numpy.ndarray, shape (n, p)
        ``H = alpha*C + beta*P``, the direction the solver searches along.
    canonical_norm, complement_norm : float
        ``||C||_F`` and ``||P||_F``.  ``||C||_F`` is the stationarity measure
        the solver reports; it vanishes exactly when ``A`` does.
    """

    direction: np.ndarray
    canonical_norm: float
    complement_norm: float

    @property
    def skew_norm(self) -> float:
        """``||A||_F = sqrt(||C||_F^2 + ||P||_F^2)``."""
        return math.hypot(self.canonical_norm, self.complement_norm)


def gradient_split(
    point: StiefelPoint, grad, alpha: float = 1.0, beta: float = 0.0
) -> GradientSplit:
    """The ``(alpha, beta)`` mix of the tangent parts of ``G`` at ``point``.

    ``grad`` comes from the objective, so it is validated here; the weights
    are not (``StiefelSolver.validate_params`` checks them once).  With
    ``M = X^T G``, ``s = alpha + beta``, ``a = alpha/s`` and ``b = beta/s``,
    ``H = s Y`` for ``Y = G - X (a M^T + b M)``: two ``n p^2`` products, whose
    second, overwritten in place, is the only ``n x p`` array made.  At the
    default mix ``H`` has the bits of ``G - X M^T``.

    The norms follow from ``C - P = X W`` with ``W = M - M^T`` and
    ``X^T P = 0``: ``||Y||^2 = ||P||^2 + a^2 ||W||^2`` and ``||C||^2 =
    ||P||^2 + ||W||^2``.  They are read from ``Y``, so no weight is squared.
    """
    g = as_matrix(grad, "grad")
    if g.shape != point.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {point.shape}")
    x = point.x
    s = alpha + beta
    a, b = alpha / s, beta / s
    m = x.T @ g
    # K = a M^T + b M accumulates into a C-ordered array: at some shapes
    # (St(100, 20) among them) OpenBLAS sums a transposed operand in another
    # order, so a product with the view M^T would change the bits of H.
    k = b * m
    k += a * m.T
    h = x @ k
    np.subtract(g, h, out=h)
    y = h.ravel()
    y_sq = y.dot(y)  # the dot product frobenius_norm roots
    w = (m - m.T).ravel()
    w_sq = w.dot(w)
    h *= s
    return GradientSplit(
        h, math.sqrt(y_sq + b * (2.0 * a + b) * w_sq), math.sqrt(max(y_sq - a * a * w_sq, 0.0))
    )


def descent_derivative(split: GradientSplit, alpha: float, beta: float) -> float:
    """Directional derivative of the objective along the projected curve.

    For ``Z(tau) = proj(X - tau*H)`` with ``H = alpha*C + beta*P``, the
    derivative at ``tau = 0`` is ``-<G, H>``, which expands to::

        -(alpha/2) (||C||_F^2 + ||P||_F^2) - beta ||P||_F^2

    Never positive for ``alpha, beta >= 0``; negative whenever ``alpha > 0``
    and ``A != 0``, since the bracket is ``||A||_F^2``.
    """
    return -0.5 * alpha * split.skew_norm**2 - beta * split.complement_norm**2
