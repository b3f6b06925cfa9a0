"""Feasible first-order minimization over matrices with orthonormal columns.

:class:`StiefelSolver` iterates ``X_{k+1} = proj(X_k - tau_k H_k)`` where
``H_k`` mixes the canonical manifold gradient with the column-span-complement
gradient, ``tau_k`` comes from Armijo backtracking seeded either with a fixed
step or with alternating Barzilai-Borwein trial steps, and acceptance is
tested against a monotone or averaged non-monotone reference value.
``solve`` drives ``StiefelSolver._step``, one iteration as a function, over a
frozen ``_Iterate``; the :class:`Objective` evaluation order is unchanged.  A
failed search ends a solve as ``LineSearchFailed``, and an accepted step that
moved ``X`` by rounding alone as ``NoProgress``.

The class follows estimator conventions: it is a dataclass whose fields are
its hyperparameters, stored verbatim by the generated ``__init__`` and
validated when :meth:`StiefelSolver.solve` runs; ``get_params``/``set_params``
read the same fields and round-trip the configuration.  Likewise the fields of
:class:`IterationRecord` are the history schema: ``SolverReport.to_dict`` and
the CLI's ``history.csv`` take their columns from them.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from numbers import Integral, Real
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .directions import GradientSplit, descent_derivative, gradient_split
from .linalg import frobenius_norm, random_orthonormal
from .linesearch import (
    NonmonotoneState,
    backtrack,
    bb_steps,
    clamp_step,
    nonmonotone_update,
)
from .manifold import StiefelPoint

__all__ = [
    "Objective",
    "Termination",
    "IterationRecord",
    "SolverReport",
    "stopping_check",
    "StiefelSolver",
]


class Objective(Protocol):
    """Duck-typed objective contract consumed by the solver.

    ``shape`` is the ``(n, p)`` of the variable, ``name`` a short label,
    ``value(x)`` the objective at a feasible ``x``, and ``gradient(x)`` the
    ambient (Euclidean) gradient, an ``(n, p)`` array.

    Evaluation order: the solver calls ``gradient(x)`` only right after
    ``value(x)`` at the same read-only array object (the start, then each
    accepted line-search trial); trials it rejects get ``value`` alone.  An
    objective may therefore keep work its ``value`` did for the ``gradient``
    that follows, keyed by the identity of a read-only ``x``, as the built-in
    problems do.  The order is the same for every objective; an
    :class:`~stiefelopt.EigProblem` also keeps its products with ``A``, from
    which the line search values a backtracked trial at ``O(n p^2)`` through
    its private methods, without a product with ``A``.
    """

    shape: tuple[int, int]
    name: str

    def value(self, x: np.ndarray) -> float: ...

    def gradient(self, x: np.ndarray) -> np.ndarray: ...


class Termination(str, Enum):
    """Why a solve stopped."""

    GRAD_TOL = "GradTol"
    REL_CHANGE = "RelChange"
    REL_CHANGE_MEAN = "RelChangeMean"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAILED = "LineSearchFailed"
    NO_PROGRESS = "NoProgress"

    def __str__(self) -> str:  # plain value in reports and CSVs
        return self.value


#: Termination kinds that count as convergence.
_SUCCESS = frozenset(
    {Termination.GRAD_TOL, Termination.REL_CHANGE, Termination.REL_CHANGE_MEAN}
)


#: An accepted step with ``relx`` at most this moved ``X`` by rounding alone
#: (re-projecting a certified point moves it up to 5e-13) and ends the solve as
#: ``NoProgress``; steps that make progress read 4e-9 and up in the tests.
_ROUNDING_RELX = 1e-12


@dataclass
class IterationRecord:
    """One history row.

    Row ``k`` describes the iterate ``X_k``: its objective value, canonical
    gradient norm, reference value, feasibility, and skew-factor norm, plus
    the transition that produced it (accepted ``tau``, relative changes,
    fast-path flag, objective evaluations spent).  ``slope`` is the
    directional derivative of the step *leaving* this iterate (NaN on a
    final row that a stopping rule ended), so the sufficient-decrease
    inequality of step ``k -> k+1`` is re-checkable from rows ``k`` and ``k+1``.
    """

    k: int
    fval: float
    nrmg: float
    tau: float
    cval: float
    relx: float
    relf: float
    fastpath: bool | None
    feasibility: float
    skew_norm: float
    slope: float = math.nan
    nfe: int = 0


@dataclass
class SolverReport:
    """Outcome of one solve.

    Attributes mirror the per-run benchmark columns: iteration count
    ``nitr``, objective evaluations ``nfe``, gradient evaluations ``nge``,
    wall time, final objective value, final canonical gradient norm,
    final feasibility error, and the termination kind.  ``x`` is the final
    iterate (read-only array) and ``history`` the per-iteration records.
    """

    nitr: int
    nfe: int
    nge: int
    time_s: float
    fval: float
    nrmg: float
    feasi: float
    termination: Termination
    x: np.ndarray
    history: list[IterationRecord] = field(repr=False, default_factory=list)
    name: str = ""

    @property
    def converged(self) -> bool:
        return self.termination in _SUCCESS

    def to_dict(self, include_history: bool = False) -> dict:
        """Plain-types summary (suitable for JSON).

        The scalar fields (every field but ``x`` and ``history``), with
        ``termination`` as its string, plus ``converged``.  With
        ``include_history`` the ``history`` key holds one dict per
        :class:`IterationRecord`, keyed by its field names in declaration
        order; ``history.csv`` writes these rows as they are.
        """
        out = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("x", "history")
        }
        out["termination"] = str(self.termination)
        out["converged"] = self.converged
        if include_history:
            out["history"] = [asdict(r) for r in self.history]
        return out


def stopping_check(
    history: Sequence[IterationRecord],
    *,
    epsilon: float,
    tolx: float,
    tolf: float,
    window: int = 5,
    max_iters: int,
) -> Termination | None:
    """Evaluate the stopping rules on the latest history row.

    In precedence order: (a) gradient norm ``<= epsilon``; (b) relative
    iterate change ``< tolx`` *and* relative value change ``< tolf``;
    (c) the means of the last ``min(k, window)`` relative changes within
    ``10*tolx`` / ``10*tolf``; (d) the iteration cap.  Returns ``None``
    while no rule fires.
    """
    if not history:
        raise ValueError("history must be nonempty")
    last = history[-1]
    if last.nrmg <= epsilon:
        return Termination.GRAD_TOL
    k = last.k
    if k >= 1:
        if last.relx < tolx and last.relf < tolf:
            return Termination.REL_CHANGE
        w = min(k, window)
        tail = history[-w:]
        mean_relx = sum(r.relx for r in tail) / w
        mean_relf = sum(r.relf for r in tail) / w
        if mean_relx <= 10.0 * tolx and mean_relf <= 10.0 * tolf:
            return Termination.REL_CHANGE_MEAN
    if k >= max_iters:
        return Termination.MAX_ITERS
    return None


class _Iterate(NamedTuple):
    """The solve's state at ``X_k``: the point, the gradient split there
    (which holds the mixed direction), the acceptance reference, the BB pair
    ``(S, R)`` (the step into ``X_k`` and the change in direction over it;
    ``None`` at ``X_0``) and its history row, which holds its value.  Frozen,
    and a tuple because one is built per iteration."""

    point: StiefelPoint
    split: GradientSplit
    state: NonmonotoneState
    bb_pair: tuple[np.ndarray, np.ndarray] | None
    record: IterationRecord


#: Allowed values of the string-valued :class:`StiefelSolver` parameters,
#: checked by ``solve`` and offered as the CLI's ``choices``.
PARAM_CHOICES = {
    "mode": ("monotone", "nonmonotone"),
    "step_init": ("fixed", "bb"),
}


@dataclass(eq=False)
class StiefelSolver:
    """Feasible descent with monotone or non-monotone Armijo acceptance.

    Parameters
    ----------
    alpha, beta : float
        Mixing weights of the search direction ``H = alpha*(G - X G^T X) +
        beta*(I - X X^T)G``.  ``alpha > 0, beta >= 0`` is the certified
        descent regime; ``alpha = 0`` (with ``beta > 0``) is accepted for
        sweep experiments but carries no guarantee.
    mode : {"nonmonotone", "monotone"}
        Acceptance reference: the averaged value ``C_k`` or the last value
        ``F(X_k)``.  Monotone mode is the averaged rule at ``eta = 0`` and
        ignores ``eta``; it picks only the reference, not the trial step.
    epsilon : float
        Gradient-norm stopping tolerance.
    tolx, tolf : float
        Relative iterate/value change tolerances, also held by their means
        over the last 5 iterations against ``10*tolx`` / ``10*tolf`` (see
        :func:`stopping_check`).
    max_iters : int
        Iteration cap.
    rho1 : float
        Sufficient-decrease coefficient in (0, 1).
    eta : float
        Averaging weight of the non-monotone reference, in [0, 1).
        ``eta = 0`` is the monotone reference; monotone mode ignores ``eta``.
    tau0 : float
        Trial step for iteration 0, and for every iteration when
        ``step_init="fixed"``.
    step_init : {"bb", "fixed"}
        Trial-step policy after iteration 0, the same in both modes: the
        BB step clamped to ``[1e-20, 1e20]``, BB1 and BB2 alternating by
        iteration parity (even memory index -> BB1), or ``tau0`` again.  The
        BB pair is ``S = X_k - X_{k-1}`` and ``R = H_k - H_{k-1}``, the change
        in the search direction, so ``(2*alpha, 2*beta, tau0/2)`` takes the
        same iterates as ``(alpha, beta, tau0)`` with every ``tau`` halved.
    max_halvings : int
        Backtracking budget per iteration; each backtrack shrinks the step
        by 0.3.

    Examples
    --------
    >>> solver = StiefelSolver(alpha=0.5, beta=0.5, max_iters=500)
    >>> report = solver.solve(problem, x0)         # doctest: +SKIP
    >>> report.converged, report.fval              # doctest: +SKIP
    """

    alpha: float = 1.0
    beta: float = 0.0
    mode: str = "nonmonotone"
    epsilon: float = 1e-4
    tolx: float = 1e-6
    tolf: float = 1e-12
    max_iters: int = 1000
    rho1: float = 1e-4
    eta: float = 0.85
    tau0: float = 1e-3
    step_init: str = "bb"
    max_halvings: int = 60

    # -- estimator-style parameter handling --------------------------------

    def get_params(self) -> dict:
        """Hyperparameters as a dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "StiefelSolver":
        """Update hyperparameters in place; unknown names raise."""
        names = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in names:
                raise ValueError(f"unknown parameter {name!r}; valid: {sorted(names)}")
            setattr(self, name, value)
        return self

    def validate_params(self) -> None:
        """Check every hyperparameter; :class:`ValueError` names the first bad one."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float):
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise ValueError(f"{f.name} must be a real number, got {value!r}")
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int too large for a float
                    finite = False
                if not finite:
                    raise ValueError(f"{f.name} must be finite, got {value}")
            elif isinstance(f.default, int):
                if isinstance(value, bool) or not (isinstance(value, Integral) and value >= 1):
                    raise ValueError(f"{f.name} must be an int >= 1, got {value!r}")
            elif value not in PARAM_CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {PARAM_CHOICES[f.name]}, got {value!r}")
        if not (self.alpha >= 0 and self.beta >= 0 and self.alpha + self.beta > 0):
            raise ValueError(
                f"need alpha >= 0, beta >= 0, alpha + beta > 0; "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        for name in ("epsilon", "tolx", "tolf", "tau0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.rho1 < 1:
            raise ValueError(f"rho1 must be in (0, 1), got {self.rho1}")
        if not 0 <= self.eta < 1:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")

    # -- main loop ----------------------------------------------------------

    def solve(
        self,
        objective: Objective,
        x0=None,
        rng=None,
        callback: Callable[[int, np.ndarray], None] | None = None,
    ) -> SolverReport:
        """Minimize ``objective`` from the feasible start ``x0``.

        Parameters
        ----------
        objective : Objective
            See the :class:`Objective` protocol.
        x0 : array_like or StiefelPoint, optional
            Feasible start; drawn with :func:`random_orthonormal` from
            ``rng`` when omitted.
        rng : None, int or numpy.random.Generator, optional
            Only used when ``x0`` is omitted.
        callback : callable, optional
            Called as ``callback(k, x_k)`` after each accepted iteration.

        Returns
        -------
        SolverReport
        """
        self.validate_params()
        n, p = objective.shape
        if x0 is None:
            point = StiefelPoint(random_orthonormal(n, p, rng))
        elif isinstance(x0, StiefelPoint):
            point = x0
        else:
            point = StiefelPoint(x0)
        if point.shape != (n, p):
            raise ValueError(f"x0 shape {point.shape} != objective shape {(n, p)}")

        start = time.perf_counter()
        f_val = float(objective.value(point.x))
        # Row 0: no step, one evaluation.
        it = self._arrive(objective, point, f_val, NonmonotoneState(q=1.0, c=f_val), k=0,
                          tau=math.nan, relx=math.nan, relf=math.nan, fastpath=None, nfe=1)
        history: list[IterationRecord] = []
        nfe = 1
        while True:
            history.append(it.record)
            if it.record.k > 0 and callback is not None:
                callback(it.record.k, it.point.x)
            outcome = stopping_check(
                history,
                epsilon=self.epsilon,
                tolx=self.tolx,
                tolf=self.tolf,
                max_iters=self.max_iters,
            )
            if outcome is None:
                outcome, step_nfe = self._step(objective, it)
                nfe += step_nfe
            if isinstance(outcome, Termination):
                break
            it = outcome

        elapsed = time.perf_counter() - start
        last = history[-1]
        return SolverReport(
            nitr=last.k,
            nfe=nfe,
            nge=len(history),  # one gradient per row
            time_s=elapsed,
            fval=last.fval,
            nrmg=last.nrmg,
            feasi=last.feasibility,
            termination=outcome,
            x=it.point.x,
            history=history,
            name=getattr(objective, "name", ""),
        )

    def _step(self, objective: Objective, it: _Iterate) -> tuple[_Iterate | Termination, int]:
        """The step leaving ``it`` and the objective values it spent.

        Returns the next iterate, or the :class:`Termination` that ends the
        solve at ``it``.  Sets ``it.record.slope`` once the slope is known.
        """
        if it.bb_pair is None or self.step_init == "fixed":
            tau = self.tau0
        else:
            # BB1 and BB2 alternate on the memory index k-1.
            bb1, bb2 = bb_steps(*it.bb_pair)
            raw = bb1 if (it.record.k - 1) % 2 == 0 else bb2
            tau = clamp_step(raw)

        it.record.slope = slope = descent_derivative(it.split, self.alpha, self.beta)
        if not slope < 0:
            # Only reachable with alpha = 0 at a point where the complement
            # component has dried up: no certified descent.
            return Termination.LINE_SEARCH_FAILED, 0
        ls = backtrack(
            objective,
            it.point,
            it.split.direction,
            slope,
            tau,
            it.state.c,
            rho1=self.rho1,
            max_halvings=self.max_halvings,
        )
        if not ls.accepted:
            return Termination.LINE_SEARCH_FAILED, ls.nfe
        step = ls.point.x - it.point.x
        relx = frobenius_norm(step) / math.sqrt(ls.point.n)
        if relx <= _ROUNDING_RELX:
            return Termination.NO_PROGRESS, ls.nfe
        eta = 0.0 if self.mode == "monotone" else self.eta
        state = nonmonotone_update(it.state, ls.value, eta)
        relf = abs(it.record.fval - ls.value) / (abs(it.record.fval) + 1.0)
        nxt = self._arrive(objective, ls.point, ls.value, state, it, step, k=it.record.k + 1,
                           tau=ls.tau, relx=relx, relf=relf, fastpath=ls.fastpath, nfe=ls.nfe)
        return nxt, ls.nfe

    def _arrive(self, objective, point, fval, state, prev=None, step=None, **row) -> _Iterate:
        """The iterate at ``point``, valued ``fval``, reached from ``prev`` by
        ``step`` (``None`` at ``X_0``), with its split, BB pair and history
        row, whose step fields (``k``, ``tau``, ``relx``, ``relf``,
        ``fastpath``, ``nfe``) are the keywords ``row``."""
        split = gradient_split(point, objective.gradient(point.x), self.alpha, self.beta)
        bb_pair = None if prev is None else (step, split.direction - prev.split.direction)
        record = IterationRecord(fval=fval, nrmg=split.canonical_norm, cval=state.c,
                                 feasibility=point.feasibility, skew_norm=split.skew_norm, **row)
        return _Iterate(point, split, state, bb_pair, record)
