"""Search directions built from the Euclidean gradient at a feasible point.

Given the ambient gradient ``G`` of the objective at ``X``, two tangent
descent candidates are available:

* ``canonical  = G - X G^T X``      (manifold gradient in the canonical metric)
* ``complement = (I - X X^T) G``    (component of ``G`` orthogonal to span(X))

Both can be written through the skew matrix ``A = G X^T - X G^T``
(``A X = canonical``, ``A (I - X X^T) = -X complement^T``), so at a feasible
``X``, ``||A||_F^2 = ||canonical||_F^2 + ||complement||_F^2``: the solver's
slope and norms come from the two ``n x p`` parts and never form the
``n x n`` matrix ``A``.  Any mix ``H = alpha*canonical + beta*complement``
with ``alpha > 0``, ``beta >= 0`` is a descent direction whose directional
derivative along the projected curve is :func:`descent_derivative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, frobenius_norm
from .manifold import StiefelPoint

__all__ = ["GradientSplit", "gradient_split", "mixed_direction", "descent_derivative"]


@dataclass(frozen=True)
class GradientSplit:
    """The two tangent components of an ambient gradient.

    Attributes
    ----------
    canonical : numpy.ndarray, shape (n, p)
        ``G - X G^T X``.  Its norm is the first-order stationarity measure
        reported by the solver; it vanishes exactly when ``skew`` does.
    complement : numpy.ndarray, shape (n, p)
        ``(I - X X^T) G``, computed as ``G - X (X^T G)`` so no ``n x n``
        intermediate is formed.
    point, grad
        The split ``X`` and ``G``, kept only to form :attr:`skew` on demand.
    """

    canonical: np.ndarray
    complement: np.ndarray
    point: StiefelPoint = field(repr=False)
    grad: np.ndarray = field(repr=False)

    @property
    def skew(self) -> np.ndarray:
        """``A = G X^T - X G^T``, skew-symmetric with ``canonical = A X``.

        An ``O(n^2)`` diagnostic built on each access; the solver uses
        :attr:`skew_norm` instead.
        """
        x = self.point.x
        return self.grad @ x.T - x @ self.grad.T

    @property
    def skew_norm(self) -> float:
        """``||A||_F = sqrt(||canonical||_F^2 + ||complement||_F^2)``."""
        return math.hypot(frobenius_norm(self.canonical), frobenius_norm(self.complement))


def gradient_split(point: StiefelPoint, grad) -> GradientSplit:
    """Split the ambient gradient ``G`` at ``point`` into tangent components."""
    g = as_matrix(grad, "grad")
    if g.shape != point.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {point.shape}")
    x = point.x
    canonical = g - x @ (g.T @ x)
    complement = g - x @ (x.T @ g)
    return GradientSplit(canonical=canonical, complement=complement, point=point, grad=g)


def mixed_direction(split: GradientSplit, alpha: float, beta: float) -> np.ndarray:
    """Descent direction ``H = alpha*canonical + beta*complement``.

    ``alpha > 0`` and ``beta >= 0`` are required: that is the regime with a
    guaranteed negative directional derivative.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return alpha * split.canonical + beta * split.complement


def descent_derivative(
    point: StiefelPoint, grad, split: GradientSplit, alpha: float, beta: float
) -> float:
    """Directional derivative of the objective along the projected curve.

    For ``Z(tau) = proj(X - tau*H)`` with ``H = alpha*canonical +
    beta*complement``, the derivative at ``tau = 0`` is ``-<G, H>``, which
    with ``C`` the canonical and ``P`` the complement part expands to::

        -(alpha/2) (||C||_F^2 + ||P||_F^2) - beta ||P||_F^2

    Never positive for ``alpha, beta >= 0``; negative whenever ``alpha > 0``
    and ``A != 0``, since the bracket is ``||A||_F^2``.
    """
    g = as_matrix(grad, "grad")
    if g.shape != point.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {point.shape}")
    return -0.5 * alpha * split.skew_norm**2 - beta * frobenius_norm(split.complement) ** 2
