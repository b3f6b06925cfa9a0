"""The package's public surface: each module's ``__all__`` declares its
public names once, and the package re-exports exactly those."""

import importlib

import pytest

import stiefelopt

MODULES = ["linalg", "manifold", "directions", "linesearch", "solver", "problems"]

# Changing this set changes the API.
PUBLIC = {
    "__version__",
    # linalg
    "as_generator",
    "as_matrix",
    "frobenius_inner",
    "frobenius_norm",
    "random_orthonormal",
    "thin_svd",
    # manifold
    "FEASIBILITY_TOL",
    "FeasibilityError",
    "RankDeficientError",
    "StiefelPoint",
    "feasibility_error",
    "is_tangent",
    "project",
    "retract",
    # directions
    "GradientSplit",
    "descent_derivative",
    "gradient_split",
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
    "stopping_check",
    # problems
    "CallableObjective",
    "EigProblem",
    "EnergyProblem",
    "WoppProblem",
    "fd_gradient",
    "load_problem",
    "problem_from_dict",
    "save_problem",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_the_package_attributes(name):
    module = importlib.import_module(f"stiefelopt.{name}")
    for attr in module.__all__:
        assert attr in stiefelopt.__all__, attr
        assert getattr(stiefelopt, attr) is getattr(module, attr), attr


def test_package_all_lists_each_public_name_once():
    assert len(stiefelopt.__all__) == len(set(stiefelopt.__all__))
    assert set(stiefelopt.__all__) == PUBLIC
