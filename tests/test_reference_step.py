"""One-step differential oracle: the paper's iteration written out literally
(explicit ``n x n`` skew factor, SVD projection, Barzilai-Borwein steps and
the Zhang-Hager reference) against the solver's ``_step`` from the same
iterates."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelopt import EigProblem, EnergyProblem, StiefelSolver, WoppProblem, random_orthonormal
from stiefelopt.solver import PARAM_CHOICES


def reference_step(solver, objective, it):
    """``(slope, tau, X_{k+1}, C_{k+1}, nfe, (S, R))`` of one literal iteration from ``it``."""
    x, k = it.point.x, it.record.k
    eye = np.eye(x.shape[0])

    def direction(z):
        objective.value(z)  # the gradient follows a value at the same array
        g = objective.gradient(z)
        a = g @ z.T - z @ g.T
        return g, solver.alpha * a @ z + solver.beta * (eye - z @ z.T) @ g

    g, h = direction(x)
    slope = -np.sum(g * h)
    tau = solver.tau0
    if k > 0 and solver.step_init == "bb":
        s, r = it.bb_pair
        bb1, bb2 = abs(np.sum(s * s) / np.sum(s * r)), abs(np.sum(s * r) / np.sum(r * r))
        tau = min(max(bb1 if (k - 1) % 2 == 0 else bb2, 1e-20), 1e20)
    for nfe in range(1, solver.max_halvings + 2):
        u, _, vt = np.linalg.svd(x - tau * h, full_matrices=False)
        z = u @ vt
        f_z = objective.value(z)
        if f_z < it.state.c + solver.rho1 * tau * slope:
            break
        tau *= 0.3
    else:
        raise AssertionError("no trial passed the literal Armijo test")
    eta = 0.0 if solver.mode == "monotone" else solver.eta
    q = eta * it.state.q + 1.0
    c = (eta * it.state.q * it.state.c + f_z) / q
    _, h_z = direction(z)
    return slope, tau, z, c, nfe, (z - x, h_z - h)


def _wopp(seed):
    rng = np.random.default_rng(seed)
    problem = WoppProblem.generate(40, 8, ptype=1, rng=rng, known_solution=True, seed=seed)
    return problem, random_orthonormal(40, 8, rng)


def _eig(seed):
    return EigProblem.generate(30, 4, seed=seed), random_orthonormal(30, 4, seed)


CASES = {
    "wopp-default": (_wopp, dict(alpha=0.5, beta=0.5)),
    "wopp-monotone": (_wopp, dict(alpha=0.5, beta=0.5, mode="monotone")),
    "wopp-fixed": (_wopp, dict(alpha=0.5, beta=0.5, step_init="fixed")),
    "eig-monotone": (_eig, dict(mode="monotone")),
    # rho1 = 0.9 makes searches backtrack, so later trials are valued along the curve.
    "eig-monotone-backtracks": (_eig, dict(mode="monotone", rho1=0.9)),
    "energy-default": (lambda seed: (EnergyProblem(40, 4), random_orthonormal(40, 4, seed)), {}),
    # An unequal mix of the two direction parts, under both step rules.
    "wopp-nonmonotone-mixed-bb": (_wopp, dict(alpha=0.3, beta=0.7)),
    "wopp-nonmonotone-mixed-fixed": (_wopp, dict(alpha=0.3, beta=0.7, step_init="fixed")),
}
# The rest of mode x step_init on the same WOPP instances.
# Settings are compared by get_params, as solvers compare by identity.
_AXES = ("mode", "step_init")
_NAMED = [StiefelSolver(**params).get_params() for _, params in CASES.values()]
for _cell in itertools.product(*(PARAM_CHOICES[axis] for axis in _AXES)):
    _params = dict(alpha=0.5, beta=0.5, **dict(zip(_AXES, _cell)))
    if StiefelSolver(**_params).get_params() not in _NAMED:
        CASES["wopp-" + "-".join(_cell)] = (_wopp, _params)


def _check_steps(solver, problem, x0):
    """Run ``solver`` on ``problem`` from ``x0``, check each ``_step`` it
    took against ``reference_step`` from the same iterate, and return the
    objective values each step spent."""
    step, steps = StiefelSolver._step, []

    def recording(self, objective, it):
        outcome = step(self, objective, it)
        steps.append((it, *outcome))
        return outcome

    with mock.patch.object(StiefelSolver, "_step", recording):
        solver.solve(problem, x0)
    assert [it.record.k for it, _, _ in steps] == list(range(solver.max_iters))

    def close(a, b):
        return np.linalg.norm(np.subtract(a, b)) <= 1e-10 * np.linalg.norm(b)

    for it, nxt, spent in steps:
        slope, tau, x, c, nfe, (s, r) = reference_step(solver, problem, it)
        assert spent == nxt.record.nfe == nfe
        assert close(it.record.slope, slope) and close(nxt.record.tau, tau)
        assert close(nxt.record.cval, c) and close(nxt.point.x, x)
        assert close(nxt.bb_pair[0], s) and close(nxt.bb_pair[1], r)
    return [spent for _, _, spent in steps]


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_matches_the_literal_iteration(case):
    build, params = CASES[case]
    spent = _check_steps(StiefelSolver(max_iters=6, **params), *build(1))
    if case == "eig-monotone-backtracks":
        assert max(spent) >= 2


# At these shapes eig's value and gradient products, formed in the
# (X^T A)^T orientation, differ from the literal A X in the last bits.
@settings(deadline=None, max_examples=6)
@given(shape=st.sampled_from([(16, 12), (9, 3), (12, 1)]), seed=st.integers(0, 2**16))
@example(shape=(16, 12), seed=0)
@example(shape=(9, 3), seed=0)
@example(shape=(12, 1), seed=0)
@example(shape=(300, 12), seed=0)  # row panels of 277 and 23 rows
def test_eig_step_matches_the_literal_iteration_at_drawn_shapes(shape, seed):
    problem, x0 = EigProblem.generate(*shape, seed=seed), random_orthonormal(*shape, seed)
    _check_steps(StiefelSolver(max_iters=6, mode="monotone"), problem, x0)
    assert max(_check_steps(StiefelSolver(max_iters=6, mode="monotone", rho1=0.9), problem, x0)) >= 2
