"""The benchmark's workloads: how each instance is built and how its solve is checked.

Instance ``i`` of a run with workload seed ``base`` is drawn from seed
``base + i``.  The solver receives only the generated problem and ``x0``;
every check below is recomputed here from the problem data and the returned
iterate.  Only the termination kind is taken from the solver's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from stiefelopt import EigProblem, EnergyProblem, StiefelSolver, WoppProblem, random_orthonormal

#: Largest ``||X^T X - I||_F`` accepted for a returned iterate.
FEASIBILITY_TOL = 1e-12

#: Termination kinds that count as a converged solve.
CONVERGED = frozenset({"GradTol", "RelChange", "RelChangeMean"})

#: WOPP: the value at the known optimum 0 stayed below 2e-10 on the seeds
#: tried while choosing the workloads.
WOPP_FVAL_TOL = 1e-8

#: Eig: at the default stopping tolerances the eigenvalue-sum error grows as
#: the gap between the 10th and 11th eigenvalues shrinks; instance seed 1023
#: (gap 0.18) stops at 1.4e-8, the largest seen over 400 instances.  A solve
#: that lands on a wrong subspace errs by at least that gap over the sum of
#: about 4e4, which is 4.7e-6 on that instance and about 5e-4 at typical gaps.
EIG_REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each was chosen is recorded in BENCHMARK.json).

    ``build(seed)`` returns ``(problem, x0)``; ``check(problem, report)``
    returns ``None`` for a correct solve or a message saying what is wrong.
    ``instances`` is how many distinct instances one pass covers.
    """

    name: str
    instances: int
    solver_params: dict
    build: Callable[[int], tuple]
    oracle: Callable[[object, object, str], str | None]

    def check(self, problem, report) -> str | None:
        x = np.asarray(report.x)
        feas = float(np.linalg.norm(x.T @ x - np.eye(x.shape[1])))
        if not feas <= FEASIBILITY_TOL:
            return f"feasibility {feas:.3e} > {FEASIBILITY_TOL:.0e}"
        if str(report.termination) not in CONVERGED:
            return f"termination {report.termination} is not a converged kind"
        return self.oracle(problem, x, str(report.termination))


# -- energy-tall -------------------------------------------------------------

ENERGY_SHAPE = (2000, 10)
ENERGY_EPSILON = StiefelSolver().epsilon  # the workload runs the default solver


def _build_energy(seed: int):
    problem = EnergyProblem(*ENERGY_SHAPE, mu=1.0)
    return problem, random_orthonormal(*ENERGY_SHAPE, np.random.default_rng(seed))


#: Energy at the minimum of the workload's problem (every instance shares the
#: problem; only ``x0`` differs), from a solve with ``epsilon=1e-9`` that
#: stopped at a residual of 8e-10.
ENERGY_MIN = 35.7085707767275

#: Largest relative excess over :data:`ENERGY_MIN` accepted.  Solves that
#: stop by the gradient rule end within 6e-10 of it.  Swapping the 10th
#: eigenvector of ``L`` for the 11th raises the quadratic term alone by half
#: their eigenvalue gap, 2.6e-5, which is 7e-7 relative.
ENERGY_REL_TOL = 1e-8


def _banded_l(n: int) -> np.ndarray:
    return np.vstack([np.full(n, -1.0), np.full(n, 2.0), np.full(n, -1.0)])


def _apply_l(x: np.ndarray) -> np.ndarray:
    lx = 2.0 * x
    lx[:-1] -= x[1:]
    lx[1:] -= x[:-1]
    return lx


def energy_value(x: np.ndarray, mu: float) -> float:
    """``0.5 tr(X^T L X) + (mu/4) rho^T L^{-1} rho`` with ``rho = diag(X X^T)``
    and ``L = tridiag(-1, 2, -1)``, written out independently of
    :class:`stiefelopt.EnergyProblem`."""
    rho = np.sum(x * x, axis=1)
    y = solve_banded((1, 1), _banded_l(x.shape[0]), rho)
    return 0.5 * float(np.sum(x * _apply_l(x))) + 0.25 * mu * float(rho @ y)


def energy_gradient(x: np.ndarray, mu: float) -> np.ndarray:
    """``L X + mu * Diag(L^{-1} rho(X)) X``, the gradient of :func:`energy_value`."""
    y = solve_banded((1, 1), _banded_l(x.shape[0]), np.sum(x * x, axis=1))
    return _apply_l(x) + mu * y[:, None] * x


def _check_energy(problem, x, termination) -> str | None:
    """The energy must be the known minimum; a solve that claims the gradient
    rule must also meet it.  The rules on relative change (``RelChange``,
    ``RelChangeMean``) promise no gradient bound: instance seed 29 stops by
    ``RelChange`` at a residual of 2.1e-4, 7e-11 above the minimum."""
    excess = (energy_value(x, problem.mu) - ENERGY_MIN) / ENERGY_MIN
    if not abs(excess) <= ENERGY_REL_TOL:
        return f"energy {excess:+.3e} relative to the minimum, beyond {ENERGY_REL_TOL:.0e}"
    if termination == "GradTol":
        g = energy_gradient(x, problem.mu)
        nrmg = float(np.linalg.norm(g - x @ (g.T @ x)))
        if not nrmg <= ENERGY_EPSILON:
            return f"stationarity residual {nrmg:.3e} > {ENERGY_EPSILON:.0e} under GradTol"
    return None


# -- wopp-wide ---------------------------------------------------------------


def _build_wopp(seed: int):
    rng = np.random.default_rng(seed)
    problem = WoppProblem.generate(300, 150, ptype=1, rng=rng, known_solution=True, seed=seed)
    return problem, random_orthonormal(300, 150, rng)


def _check_wopp(problem, x, termination) -> str | None:
    r = problem.a @ x @ problem.c - problem.b
    fval = 0.5 * float(np.sum(r * r))
    if not fval <= WOPP_FVAL_TOL:
        return f"value {fval:.3e} above the known optimum 0 by more than {WOPP_FVAL_TOL:.0e}"
    return None


# -- eig-monotone ------------------------------------------------------------


def _build_eig(seed: int):
    rng = np.random.default_rng(seed)
    problem = EigProblem.generate(1000, 10, rng=rng, seed=seed)
    return problem, random_orthonormal(1000, 10, rng)


def _check_eig(problem, x, termination) -> str | None:
    estimate = float(np.sum(x * (problem.a @ x)))
    target = float(np.sum(problem.oracle_eigs))
    rel = abs(target - estimate) / abs(estimate)
    if not rel <= EIG_REL_TOL:
        return f"eigenvalue-sum relative error {rel:.3e} > {EIG_REL_TOL:.0e}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="energy-tall",
            instances=10,
            solver_params={},
            build=_build_energy,
            oracle=_check_energy,
        ),
        Workload(
            name="wopp-wide",
            instances=30,
            solver_params={"alpha": 0.5, "beta": 0.5},
            build=_build_wopp,
            oracle=_check_wopp,
        ),
        Workload(
            name="eig-monotone",
            instances=24,
            solver_params={"mode": "monotone", "step_init": "bb"},
            build=_build_eig,
            oracle=_check_eig,
        ),
    )
}
