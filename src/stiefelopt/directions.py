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
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_norm
from .manifold import StiefelPoint

__all__ = ["GradientSplit", "gradient_split", "descent_derivative"]


@dataclass(frozen=True)
class GradientSplit:
    """The two tangent components of an ambient gradient.

    Attributes
    ----------
    canonical : numpy.ndarray, shape (n, p)
        ``G - X G^T X``.  Its norm is the first-order stationarity measure
        reported by the solver; it vanishes exactly when the skew factor
        ``A = G X^T - X G^T`` does.
    complement : numpy.ndarray, shape (n, p)
        ``(I - X X^T) G``, computed as ``G - X (X^T G)`` so no ``n x n``
        intermediate is formed.  Both parts share the one ``p x p`` product
        ``X^T G``: ``canonical`` is ``G - X (X^T G)^T``.
    canonical_norm, complement_norm : float
        Frobenius norms of the two parts, from which the solver's gradient
        norm, :attr:`skew_norm` and :func:`descent_derivative` are read.
    """

    canonical: np.ndarray
    complement: np.ndarray
    canonical_norm: float
    complement_norm: float

    @property
    def skew_norm(self) -> float:
        """``||A||_F = sqrt(||canonical||_F^2 + ||complement||_F^2)``."""
        return math.hypot(self.canonical_norm, self.complement_norm)


def gradient_split(point: StiefelPoint, grad) -> GradientSplit:
    """Split the ambient gradient ``G`` at ``point`` into tangent components.

    ``grad`` comes from the objective, so this is where it is validated.
    ``X^T G`` is formed once; its transpose stands for ``G^T X``, so the split
    costs three ``n p^2`` products.  Each part is its product with ``X``,
    overwritten by ``G`` minus it, so the only ``n x p`` arrays made are the
    two parts returned.
    """
    g = as_matrix(grad, "grad")
    if g.shape != point.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {point.shape}")
    x = point.x
    xtg = x.T @ g  # G^T X is its transpose: three n p^2 products in all
    # G^T X as a C-ordered p x p copy: at some shapes (St(100, 20) among them)
    # OpenBLAS sums a transposed operand in another order, so the view would
    # change the bits of canonical.
    canonical = x @ xtg.T.copy()
    np.subtract(g, canonical, out=canonical)
    complement = x @ xtg
    np.subtract(g, complement, out=complement)
    return GradientSplit(
        canonical, complement, frobenius_norm(canonical), frobenius_norm(complement)
    )


def _mix(split: GradientSplit, alpha: float, beta: float) -> np.ndarray:
    """The mixed direction ``H = alpha*canonical + beta*complement``.

    Unchecked: ``StiefelSolver.validate_params`` checks the weights once, and
    admits the sweep setting ``alpha = 0``.  Accumulating in place holds two
    ``n x p`` temporaries instead of three, with the bits of the formula."""
    d = alpha * split.canonical
    d += beta * split.complement
    return d


def descent_derivative(split: GradientSplit, alpha: float, beta: float) -> float:
    """Directional derivative of the objective along the projected curve.

    For ``Z(tau) = proj(X - tau*H)`` with ``H = alpha*canonical +
    beta*complement``, the derivative at ``tau = 0`` is ``-<G, H>``, which
    with ``C`` the canonical and ``P`` the complement part expands to::

        -(alpha/2) (||C||_F^2 + ||P||_F^2) - beta ||P||_F^2

    Never positive for ``alpha, beta >= 0``; negative whenever ``alpha > 0``
    and ``A != 0``, since the bracket is ``||A||_F^2``.
    """
    return -0.5 * alpha * split.skew_norm**2 - beta * split.complement_norm**2
