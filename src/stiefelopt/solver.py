"""Feasible first-order minimization over matrices with orthonormal columns.

:class:`StiefelSolver` iterates ``X_{k+1} = proj(X_k - tau_k H_k)`` where
``H_k`` mixes the canonical manifold gradient with the column-span-complement
gradient, ``tau_k`` comes from Armijo backtracking seeded either with a fixed
step or with alternating Barzilai-Borwein trial steps, and acceptance is
tested against a monotone or averaged non-monotone reference value.

The class follows estimator conventions: hyperparameters are stored verbatim
by ``__init__`` and validated when :meth:`StiefelSolver.solve` runs, and
``get_params``/``set_params`` round-trip the configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol, Sequence

import numpy as np

from .directions import descent_derivative, gradient_split
from .linalg import as_generator, frobenius_norm, random_orthonormal
from .linesearch import (
    LineSearchError,
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
    "kkt_residual",
    "StiefelSolver",
]


class Objective(Protocol):
    """Duck-typed objective contract consumed by the solver.

    ``shape`` is the ``(n, p)`` of the variable, ``name`` a short label,
    ``value(x)`` the objective at a feasible ``x``, and ``gradient(x)`` the
    ambient (Euclidean) gradient, an ``(n, p)`` array.
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

    def __str__(self) -> str:  # plain value in reports and CSVs
        return self.value


#: Termination kinds that count as convergence.
_SUCCESS = frozenset(
    {Termination.GRAD_TOL, Termination.REL_CHANGE, Termination.REL_CHANGE_MEAN}
)


@dataclass
class IterationRecord:
    """One history row.

    Row ``k`` describes the iterate ``X_k``: its objective value, canonical
    gradient norm, reference value, feasibility, and skew-factor norm, plus
    the transition that produced it (accepted ``tau``, relative changes,
    fast-path flag, objective evaluations spent).  ``slope`` is the
    directional derivative of the step *leaving* this iterate (NaN on the
    final row), so the sufficient-decrease inequality of step ``k -> k+1``
    is re-checkable from rows ``k`` and ``k+1``.
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
        """Plain-types summary (suitable for JSON)."""
        out = {
            "name": self.name,
            "nitr": self.nitr,
            "nfe": self.nfe,
            "nge": self.nge,
            "time_s": self.time_s,
            "fval": self.fval,
            "nrmg": self.nrmg,
            "feasi": self.feasi,
            "termination": str(self.termination),
            "converged": self.converged,
        }
        if include_history:
            out["history"] = [
                {
                    "k": r.k,
                    "fval": r.fval,
                    "nrmg": r.nrmg,
                    "tau": r.tau,
                    "ck": r.cval,
                    "relx": r.relx,
                    "relf": r.relf,
                    "fastpath": r.fastpath,
                }
                for r in self.history
            ]
        return out


def kkt_residual(point_or_x, grad) -> float:
    """First-order stationarity residual ``||G - X (G^T X)||_F``.

    The norm of the canonical part of :func:`gradient_split`, which is the
    quantity reported as ``nrmg``; zero exactly where the skew factor
    ``G X^T - X G^T`` vanishes.  An array ``x`` must be feasible
    (:class:`FeasibilityError` otherwise).
    """
    point = point_or_x if isinstance(point_or_x, StiefelPoint) else StiefelPoint(point_or_x)
    return gradient_split(point, grad).canonical_norm


def stopping_check(
    history: Sequence[IterationRecord],
    *,
    epsilon: float,
    tolx: float,
    tolf: float,
    window: int,
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
        ``F(X_k)``.
    epsilon : float
        Gradient-norm stopping tolerance.
    tolx, tolf : float
        Relative iterate/value change tolerances (see :func:`stopping_check`).
    window : int
        Averaging window of the mean-change stopping rule.
    max_iters : int
        Iteration cap.
    delta : float
        Backtracking shrink factor in (0, 1).
    rho1 : float
        Sufficient-decrease coefficient in (0, 1).
    tau_min, tau_max : float
        Clamp interval for BB trial steps.
    eta : float
        Averaging weight of the non-monotone reference, in [0, 1).
        ``eta = 0`` reproduces the monotone reference exactly.
    tau0 : float
        Trial step for iteration 0 and for every iteration under a fixed
        step policy.
    bb_mode : {"alternate", "bb1", "bb2"}
        Which BB formula seeds the backtracking: alternate by iteration
        parity (even memory index -> bb1), or one of them always.
    step_init : {"auto", "fixed", "bb"}
        Trial-step policy after iteration 0.  "auto" resolves to "bb" in
        non-monotone mode and "fixed" in monotone mode.
    bb_gradient : {"canonical", "mixed"}
        Whether the BB residual uses the canonical-gradient difference or
        the full mixed-direction difference.
    max_halvings : int
        Backtracking budget per iteration.

    Examples
    --------
    >>> solver = StiefelSolver(alpha=0.5, beta=0.5, max_iters=500)
    >>> report = solver.solve(problem, x0)         # doctest: +SKIP
    >>> report.converged, report.fval              # doctest: +SKIP
    """

    _PARAM_NAMES = (
        "alpha",
        "beta",
        "mode",
        "epsilon",
        "tolx",
        "tolf",
        "window",
        "max_iters",
        "delta",
        "rho1",
        "tau_min",
        "tau_max",
        "eta",
        "tau0",
        "bb_mode",
        "step_init",
        "bb_gradient",
        "max_halvings",
    )

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 0.0,
        mode: str = "nonmonotone",
        epsilon: float = 1e-4,
        tolx: float = 1e-6,
        tolf: float = 1e-12,
        window: int = 5,
        max_iters: int = 1000,
        delta: float = 0.3,
        rho1: float = 1e-4,
        tau_min: float = 1e-20,
        tau_max: float = 1e20,
        eta: float = 0.85,
        tau0: float = 1e-3,
        bb_mode: str = "alternate",
        step_init: str = "auto",
        bb_gradient: str = "canonical",
        max_halvings: int = 60,
    ):
        self.alpha = alpha
        self.beta = beta
        self.mode = mode
        self.epsilon = epsilon
        self.tolx = tolx
        self.tolf = tolf
        self.window = window
        self.max_iters = max_iters
        self.delta = delta
        self.rho1 = rho1
        self.tau_min = tau_min
        self.tau_max = tau_max
        self.eta = eta
        self.tau0 = tau0
        self.bb_mode = bb_mode
        self.step_init = step_init
        self.bb_gradient = bb_gradient
        self.max_halvings = max_halvings

    # -- estimator-style parameter handling --------------------------------

    def get_params(self) -> dict:
        """Hyperparameters as a dict."""
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "StiefelSolver":
        """Update hyperparameters in place; unknown names raise."""
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ValueError(
                    f"unknown parameter {name!r}; valid: {sorted(self._PARAM_NAMES)}"
                )
            setattr(self, name, value)
        return self

    def _validate_params(self) -> None:
        if not (self.alpha >= 0 and self.beta >= 0 and self.alpha + self.beta > 0):
            raise ValueError(
                f"need alpha >= 0, beta >= 0, alpha + beta > 0; "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        if self.mode not in ("monotone", "nonmonotone"):
            raise ValueError(f"mode must be 'monotone' or 'nonmonotone', got {self.mode!r}")
        for name in ("epsilon", "tolx", "tolf", "tau0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (isinstance(self.window, int) and self.window >= 1):
            raise ValueError(f"window must be an int >= 1, got {self.window}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 < self.rho1 < 1:
            raise ValueError(f"rho1 must be in (0, 1), got {self.rho1}")
        if not 0 < self.tau_min <= self.tau_max:
            raise ValueError(
                f"need 0 < tau_min <= tau_max, got [{self.tau_min}, {self.tau_max}]"
            )
        if not 0 <= self.eta < 1:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")
        if self.bb_mode not in ("alternate", "bb1", "bb2"):
            raise ValueError(f"bb_mode must be alternate/bb1/bb2, got {self.bb_mode!r}")
        if self.step_init not in ("auto", "fixed", "bb"):
            raise ValueError(f"step_init must be auto/fixed/bb, got {self.step_init!r}")
        if self.bb_gradient not in ("canonical", "mixed"):
            raise ValueError(
                f"bb_gradient must be 'canonical' or 'mixed', got {self.bb_gradient!r}"
            )
        if not (isinstance(self.max_halvings, int) and self.max_halvings >= 1):
            raise ValueError(f"max_halvings must be an int >= 1, got {self.max_halvings}")

    # -- main loop ----------------------------------------------------------

    def _mix(self, split) -> np.ndarray:
        """:func:`mixed_direction`, but admitting the sweep setting ``alpha = 0``."""
        return self.alpha * split.canonical + self.beta * split.complement

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
        self._validate_params()
        n, p = objective.shape
        if x0 is None:
            point = StiefelPoint(random_orthonormal(n, p, as_generator(rng)))
        elif isinstance(x0, StiefelPoint):
            point = x0
        else:
            point = StiefelPoint(x0)
        if point.shape != (n, p):
            raise ValueError(f"x0 shape {point.shape} != objective shape {(n, p)}")

        monotone = self.mode == "monotone"
        use_bb = self.step_init == "bb" or (self.step_init == "auto" and not monotone)
        sqrt_n = math.sqrt(n)

        start = time.perf_counter()
        f_val = float(objective.value(point.x))
        nfe, nge = 1, 1
        split = gradient_split(point, objective.gradient(point.x))
        state = NonmonotoneState(q=1.0, c=f_val)
        history = [
            IterationRecord(
                k=0,
                fval=f_val,
                nrmg=split.canonical_norm,
                tau=math.nan,
                cval=state.c,
                relx=math.nan,
                relf=math.nan,
                fastpath=None,
                feasibility=point.feasibility,
                skew_norm=split.skew_norm,
                nfe=1,
            )
        ]

        termination = stopping_check(
            history,
            epsilon=self.epsilon,
            tolx=self.tolx,
            tolf=self.tolf,
            window=self.window,
            max_iters=self.max_iters,
        )
        k = 0
        tau_next = self.tau0
        memory: tuple[np.ndarray, np.ndarray] | None = None
        direction = self._mix(split)

        while termination is None:
            slope = descent_derivative(split, self.alpha, self.beta)
            history[-1].slope = slope
            if not slope < 0:
                # Only reachable with alpha = 0 at a point where the
                # complement component has dried up: no certified descent.
                termination = Termination.LINE_SEARCH_FAILED
                break
            c_ref = f_val if monotone else state.c
            try:
                ls = backtrack(
                    objective,
                    point,
                    direction,
                    slope,
                    tau_next,
                    c_ref,
                    rho1=self.rho1,
                    delta=self.delta,
                    max_halvings=self.max_halvings,
                )
            except LineSearchError as err:
                nfe += err.nfe
                termination = Termination.LINE_SEARCH_FAILED
                break
            nfe += ls.nfe

            new_point = ls.point
            step_mat = new_point.x - point.x
            relx = frobenius_norm(step_mat) / sqrt_n
            relf = abs(f_val - ls.value) / (abs(f_val) + 1.0)
            nge += 1
            new_split = gradient_split(new_point, objective.gradient(new_point.x))
            new_direction = self._mix(new_split)
            if self.bb_gradient == "canonical":
                resid = new_split.canonical - split.canonical
            else:
                resid = new_direction - direction
            memory = (step_mat, resid)
            if not monotone:
                state = nonmonotone_update(state, ls.value, self.eta)

            k += 1
            point, f_val, split, direction = new_point, ls.value, new_split, new_direction
            history.append(
                IterationRecord(
                    k=k,
                    fval=f_val,
                    nrmg=split.canonical_norm,
                    tau=ls.tau,
                    cval=f_val if monotone else state.c,
                    relx=relx,
                    relf=relf,
                    fastpath=ls.used_taylor,
                    feasibility=point.feasibility,
                    skew_norm=split.skew_norm,
                    nfe=ls.nfe,
                )
            )
            if callback is not None:
                callback(k, point.x)

            termination = stopping_check(
                history,
                epsilon=self.epsilon,
                tolx=self.tolx,
                tolf=self.tolf,
                window=self.window,
                max_iters=self.max_iters,
            )
            if termination is None:
                if use_bb and memory is not None:
                    bb1, bb2 = bb_steps(*memory)
                    if self.bb_mode == "bb1":
                        raw = bb1
                    elif self.bb_mode == "bb2":
                        raw = bb2
                    else:  # alternate on the memory index (k-1)
                        raw = bb1 if (k - 1) % 2 == 0 else bb2
                    tau_next = clamp_step(raw, self.tau_min, self.tau_max)
                else:
                    tau_next = self.tau0

        elapsed = time.perf_counter() - start
        return SolverReport(
            nitr=k,
            nfe=nfe,
            nge=nge,
            time_s=elapsed,
            fval=f_val,
            nrmg=split.canonical_norm,
            feasi=point.feasibility,
            termination=termination,
            x=point.x,
            history=history,
            name=getattr(objective, "name", ""),
        )
