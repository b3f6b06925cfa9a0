"""Step-size machinery: BB trial steps, clamping, the non-monotone reference
value, and Armijo backtracking along the projected curve.

Running out of step reductions is an ordinary outcome of a search, so
:func:`backtrack` returns a :class:`LineSearchResult` either way; it raises
only for invalid arguments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import frobenius_inner, frobenius_norm
from .manifold import StiefelPoint, retract

__all__ = [
    "bb_steps",
    "clamp_step",
    "NonmonotoneState",
    "nonmonotone_update",
    "LineSearchResult",
    "backtrack",
]

#: Denominators below this magnitude make a BB quotient meaningless; the
#: quotient is reported as +inf and left for :func:`clamp_step` to cap.
BB_DENOM_TOL = 1e-30

#: A trial is valued along the curve only while the steps ``X - tau H`` of
#: both it and the trial the curve starts from have condition number at most
#: this, by the bound :func:`retract` returns (see :func:`_curve`); otherwise
#: it takes its own product.  The curve's rounding grows with it: over 18000
#: drawn eig searches, St(2, 2) to St(200, 10), its ``A Z`` stayed within
#: 1.6e-15 relative of the direct product below 10, and reached 8.7e-15 below
#: 1e2 and 2.1e-14 below 1e3.  The largest errors came from St(2, 2) and
#: St(3, 3), whose objective is constant, so that the direction is rounding
#: noise and far from tangent.
CURVE_MAX_COND = 10.0


def bb_steps(step_diff, dir_diff) -> tuple[float, float]:
    """Both Barzilai-Borwein trial steps from one iterate/direction difference.

    With ``S = X_{k+1} - X_k`` and ``R = H_{k+1} - H_k``, the difference of
    the search directions the solver steps along::

        bb1 = | ||S||_F^2 / <S, R> |       bb2 = | <S, R> / ||R||_F^2 |

    Absolute values keep the steps positive on non-convex stretches where
    ``<S, R> < 0``.  A denominator with magnitude below
    :data:`BB_DENOM_TOL` yields ``math.inf`` (the caller clamps).
    """
    ss = frobenius_norm(step_diff) ** 2
    sr = frobenius_inner(step_diff, dir_diff)
    rr = frobenius_norm(dir_diff) ** 2
    bb1 = math.inf if abs(sr) < BB_DENOM_TOL else abs(ss / sr)
    bb2 = math.inf if rr < BB_DENOM_TOL else abs(sr / rr)
    return bb1, bb2


def clamp_step(tau: float, tau_min: float = 1e-20, tau_max: float = 1e20) -> float:
    """Clamp a trial step into ``[tau_min, tau_max]`` (inf maps to tau_max)."""
    if not (0 < tau_min <= tau_max):
        raise ValueError(f"need 0 < tau_min <= tau_max, got [{tau_min}, {tau_max}]")
    return max(min(tau, tau_max), tau_min)


@dataclass(frozen=True)
class NonmonotoneState:
    """Weight ``q`` and reference value ``c`` of the averaged acceptance rule.

    Fresh solves start from ``q = 1`` and ``c = F(X_0)``.
    """

    q: float
    c: float


def nonmonotone_update(
    state: NonmonotoneState, f_new: float, eta: float
) -> NonmonotoneState:
    """Advance the averaged reference after accepting a step with value ``f_new``.

    ::

        q' = eta * q + 1
        c' = (eta * q * c + f_new) / q'

    ``eta = 0`` (monotone) runs the same formula, which gives ``q' = 1`` and
    ``c' = f_new`` whatever the old finite ``c``; ``eta = 1`` (boundary,
    useful in tests) makes ``c`` the running mean of all accepted values.
    Only a reference that is not finite (a start with ``F(X_0) = inf``)
    restarts, with ``q = 1`` and ``c = f_new``; averaged in, it would stay
    infinite (or turn NaN at ``eta = 0``) and void every later
    sufficient-decrease test.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if not math.isfinite(state.c):
        return NonmonotoneState(q=1.0, c=f_new)
    q_new = eta * state.q + 1.0
    return NonmonotoneState(q=q_new, c=(eta * state.q * state.c + f_new) / q_new)


@dataclass(frozen=True)
class LineSearchResult:
    """Outcome of one backtracking search.

    ``accepted`` says whether a trial passed the sufficient-decrease test.
    If one did, ``tau``, ``point`` and ``value`` are its step, landing point
    and objective value; if the budget ran out, they are those of the
    lowest-value trial (ties keep the first; a NaN value loses to any
    other).  ``nfe`` counts every trial the search evaluated, and
    ``fastpath`` says whether :func:`retract` took its fast path to
    ``point``.
    """

    tau: float
    point: StiefelPoint
    value: float
    nfe: int
    fastpath: bool
    accepted: bool


def _curve(objective, point: StiefelPoint, tau1: float, z1: np.ndarray, w1: np.ndarray):
    """The function ``(tau, Z, W) -> F(Z)`` that values the trials after a
    rejected trial ``z1 = Z(tau1)`` without a product with ``A``, or None
    when ``objective`` keeps no products (only :class:`~stiefelopt.EigProblem`
    does).  Each ``W`` is the factor :func:`retract` returned with its ``Z``.

    ``A`` is linear and ``Z = step W`` along ``step(tau) = X - tau*H``, so::

        A Z = ((1 - s) A X + s A step(tau1)) W,    s = tau / tau1,

    with ``A step(tau1) = A Z1 W1^-1`` once, in ``O(n p^2)`` per trial.  Its
    rounding grows with the step's condition number, at most
    ``sqrt(1 + tau^2 ||H||_2^2)`` for tangent ``H`` but unbounded for a
    direction tangent only to within rounding larger than itself, as at a
    stationary point: see :data:`CURVE_MAX_COND`.
    """
    product = getattr(objective, "_product", None)
    if product is None:
        return None
    ax, az1 = product(point.x), product(z1)
    if ax is None or az1 is None:
        return None
    a_step1 = np.linalg.solve(w1.T, az1.T).T

    def value(tau: float, z: np.ndarray, w: np.ndarray) -> float:
        s = tau / tau1
        return objective._value_from(z, ((1.0 - s) * ax + s * a_step1) @ w)

    return value


def backtrack(
    objective,
    point: StiefelPoint,
    direction,
    slope: float,
    tau0: float,
    c_ref: float,
    *,
    rho1: float = 1e-4,
    delta: float = 0.3,
    max_halvings: int = 60,
) -> LineSearchResult:
    """Armijo backtracking along ``Z(tau) = proj(X - tau*H)``.

    Starting from ``tau0``, the step shrinks by ``delta`` until the strict
    sufficient-decrease test ``F(Z(tau)) < c_ref + rho1 * tau * slope``
    passes; a candidate that merely ties the reference is rejected.  With a
    monotone reference ``c_ref = F(X)`` this is classical Armijo; the
    non-monotone solver passes its averaged reference instead.

    The first trial is valued by ``objective.value``, as is every trial of
    an objective that keeps no products with ``A``.  An
    :class:`~stiefelopt.EigProblem` does: once a trial it valued is rejected,
    the later trials are valued along the curve from the kept ``A X`` and
    that trial's ``A Z`` (see :func:`_curve`), at ``O(n p^2)`` each, while
    their steps are conditioned within :data:`CURVE_MAX_COND`.

    Parameters
    ----------
    objective
        Object with ``value(x) -> float``.
    point : StiefelPoint
        Current iterate ``X``.
    direction : array_like
        Tangent descent direction ``H``.
    slope : float
        Directional derivative at ``tau = 0``; must be negative.
    tau0 : float
        First trial step, ``> 0``.
    c_ref : float
        Acceptance reference value.
    rho1, delta : float
        Sufficient-decrease coefficient and shrink factor, both in (0, 1).
    max_halvings : int
        Budget of shrinks before giving up.

    Returns
    -------
    LineSearchResult
        The first trial that passes, with ``accepted=True``; or, after
        ``max_halvings`` shrinks without one, the lowest-value trial with
        ``accepted=False``.  Either way ``nfe`` counts every trial.
    """
    if not slope < 0:
        raise ValueError(f"slope must be negative, got {slope}")
    if not tau0 > 0:
        raise ValueError(f"tau0 must be > 0, got {tau0}")
    if not 0 < rho1 < 1:
        raise ValueError(f"rho1 must be in (0, 1), got {rho1}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")

    tau = float(tau0)
    nfe = 0
    best: LineSearchResult | None = None
    curve = None
    while True:
        candidate, fastpath, w, cond = retract(point, direction, tau)
        conditioned = cond <= CURVE_MAX_COND  # false after the SVD rescue, whose w is None
        direct = curve is None or not conditioned
        f_val = float(objective.value(candidate.x)) if direct else curve(tau, candidate.x, w)
        nfe += 1
        if f_val < c_ref + rho1 * tau * slope:
            return LineSearchResult(
                tau=tau, point=candidate, value=f_val, nfe=nfe, fastpath=fastpath, accepted=True
            )
        if (
            best is None
            or f_val < best.value
            or (math.isnan(best.value) and not math.isnan(f_val))
        ):
            best = LineSearchResult(
                tau=tau, point=candidate, value=f_val, nfe=nfe, fastpath=fastpath, accepted=False
            )
        if nfe > max_halvings:
            return replace(best, nfe=nfe)
        if direct:
            curve = _curve(objective, point, tau, candidate.x, w) if conditioned else None
        tau *= delta
