"""stiefelopt: feasible first-order minimization over the Stiefel manifold.

Public surface: dense helpers (:mod:`stiefelopt.linalg`), the feasible-set
machinery (:mod:`stiefelopt.manifold`), search directions
(:mod:`stiefelopt.directions`), step-size rules (:mod:`stiefelopt.linesearch`),
the solver (:mod:`stiefelopt.solver`), benchmark problems
(:mod:`stiefelopt.problems`), and the ``stiefel-bench`` CLI
(:mod:`stiefelopt.cli`).
"""

from .directions import GradientSplit, descent_derivative, gradient_split, mixed_direction
from .linalg import (
    ThinSVD,
    as_generator,
    as_matrix,
    frobenius_inner,
    frobenius_norm,
    householder_reflector,
    random_orthonormal,
    thin_svd,
)
from .linesearch import (
    LineSearchResult,
    NonmonotoneState,
    backtrack,
    bb_steps,
    clamp_step,
    nonmonotone_update,
)
from .manifold import (
    FEASIBILITY_TOL,
    TAYLOR_ACCEPT_TOL,
    FeasibilityError,
    RankDeficientError,
    StiefelPoint,
    feasibility_error,
    is_tangent,
    project,
    retract,
)
from .problems import (
    CallableObjective,
    EigProblem,
    EnergyProblem,
    WoppProblem,
    fd_gradient,
    load_problem,
    problem_from_dict,
    save_problem,
)
from .solver import (
    IterationRecord,
    Objective,
    SolverReport,
    StiefelSolver,
    Termination,
    kkt_residual,
    stopping_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "ThinSVD",
    "as_generator",
    "as_matrix",
    "frobenius_inner",
    "frobenius_norm",
    "householder_reflector",
    "random_orthonormal",
    "thin_svd",
    # manifold
    "FEASIBILITY_TOL",
    "TAYLOR_ACCEPT_TOL",
    "FeasibilityError",
    "RankDeficientError",
    "StiefelPoint",
    "feasibility_error",
    "is_tangent",
    "project",
    "retract",
    # directions
    "GradientSplit",
    "gradient_split",
    "mixed_direction",
    "descent_derivative",
    # linesearch
    "LineSearchResult",
    "NonmonotoneState",
    "backtrack",
    "bb_steps",
    "clamp_step",
    "nonmonotone_update",
    # solver
    "IterationRecord",
    "Objective",
    "SolverReport",
    "StiefelSolver",
    "Termination",
    "kkt_residual",
    "stopping_check",
    # problems
    "CallableObjective",
    "EigProblem",
    "EnergyProblem",
    "WoppProblem",
    "fd_gradient",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]
