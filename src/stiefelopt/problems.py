"""Benchmark objectives over matrices with orthonormal columns.

Three families, each exposing the solver's objective contract
(``shape``, ``name``, ``value(x)``, ``gradient(x)``):

* :class:`WoppProblem` — weighted orthogonal Procrustes,
  ``0.5 * ||A X C - B||_F^2`` with controllable conditioning of ``A``;
* :class:`EnergyProblem` — a discretized kinetic-plus-pair-repulsion total
  energy with a tridiagonal stiffness matrix;
* :class:`EigProblem` — ``-trace(X^T A X)`` for a random Gram matrix, whose
  minimizers span the dominant eigenspace.

Plus a central-difference gradient oracle (:func:`fd_gradient`), a wrapper
for ad-hoc objectives (:class:`CallableObjective`), and JSON serialization
helpers (:func:`save_problem` / :func:`load_problem`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .linalg import (
    as_generator,
    as_matrix,
    frobenius_norm,
    householder_reflector,
    random_orthonormal,
)
from .solver import kkt_residual

__all__ = [
    "WoppProblem",
    "EnergyProblem",
    "EigProblem",
    "CallableObjective",
    "fd_gradient",
    "problem_from_dict",
    "save_problem",
    "load_problem",
]


@dataclass
class CallableObjective:
    """Wrap plain callables as a solver-compatible objective."""

    fun: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, int]
    name: str = "custom"

    def value(self, x: np.ndarray) -> float:
        return float(self.fun(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(x), dtype=np.float64)


def fd_gradient(objective, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference estimate of the ambient gradient.

    Entry ``(i, j)`` is ``(F(X + h E_ij) - F(X - h E_ij)) / (2h)``.  Meant
    as an independent oracle for testing analytic gradients; cost is two
    objective evaluations per entry.
    """
    x = as_matrix(x, "x")
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    out = np.empty_like(x)
    work = x.copy()
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            orig = work[i, j]
            work[i, j] = orig + h
            f_plus = float(objective.value(work))
            work[i, j] = orig - h
            f_minus = float(objective.value(work))
            work[i, j] = orig
            out[i, j] = (f_plus - f_minus) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# Weighted orthogonal Procrustes
# ---------------------------------------------------------------------------


class WoppProblem:
    """Weighted orthogonal Procrustes: minimize ``0.5 * ||A X C - B||_F^2``.

    The variable ``X`` is ``(m, n)`` with orthonormal columns; ``A`` is
    ``(m, m)``, ``C`` is ``(n, n)`` symmetric positive definite, ``B`` is
    ``(m, n)``.

    Parameters
    ----------
    a, c, b : array_like
        Problem data (validated for shape/finiteness).
    ptype : int, optional
        Conditioning class of the generator that produced ``a`` (1, 2 or 3),
        kept for bookkeeping.
    solution : array_like, optional
        A feasible matrix ``Q`` with ``B = A Q C`` exactly, when known; the
        optimum value is then 0.
    seed : int, optional
        Seed recorded by :meth:`generate` for serialization.
    """

    def __init__(self, a, c, b, ptype: int | None = None, solution=None, seed=None):
        self.a = as_matrix(a, "a")
        self.c = as_matrix(c, "c")
        self.b = as_matrix(b, "b")
        m = self.a.shape[0]
        n = self.c.shape[0]
        if self.a.shape != (m, m):
            raise ValueError(f"a must be square, got {self.a.shape}")
        if self.c.shape != (n, n):
            raise ValueError(f"c must be square, got {self.c.shape}")
        if self.b.shape != (m, n):
            raise ValueError(f"b must be ({m}, {n}), got {self.b.shape}")
        if m < n:
            raise ValueError(f"need m >= n, got m={m}, n={n}")
        self.solution = None if solution is None else as_matrix(solution, "solution")
        if self.solution is not None and self.solution.shape != (m, n):
            raise ValueError(
                f"solution must be ({m}, {n}), got {self.solution.shape}"
            )
        self.ptype = ptype
        self.seed = seed
        self.shape = (m, n)
        self.name = f"wopp-p{ptype}" if ptype is not None else "wopp"

    @staticmethod
    def _diagonal(m: int, ptype: int, rng: np.random.Generator) -> np.ndarray:
        """Singular-value profile of ``A`` for the three conditioning classes."""
        if ptype == 1:
            # Normal(11, 1) truncated to [10, 12] by rejection: condition
            # number of A stays below 1.2.
            vals = np.empty(m)
            filled = 0
            while filled < m:
                draw = rng.normal(11.0, 1.0, size=m - filled)
                keep = draw[(draw >= 10.0) & (draw <= 12.0)]
                vals[filled : filled + keep.size] = keep
                filled += keep.size
            return vals
        i = np.arange(1, m + 1, dtype=np.float64)
        if ptype == 2:
            return i + 2.0 * rng.random(m)
        if ptype == 3:
            return 1.0 + 99.0 * (i - 1.0) / (m + 1.0) + 2.0 * rng.random(m)
        raise ValueError(f"ptype must be 1, 2 or 3, got {ptype}")

    @classmethod
    def generate(
        cls,
        m: int,
        n: int,
        ptype: int = 1,
        rng=None,
        known_solution: bool = True,
        seed: int | None = None,
    ) -> "WoppProblem":
        """Draw a seeded instance.

        ``A = P S R^T`` with ``P, R`` random orthogonal and ``S`` diagonal
        per ``ptype``; ``C = Q diag(lam) Q^T`` with ``Q`` a Householder
        reflection of a random vector and ``lam`` uniform on [1/2, 2].  With
        ``known_solution`` the right-hand side is ``B = A Q* C`` for a random
        feasible ``Q*`` (optimum value 0); otherwise ``B`` has uniform [0, 1)
        entries.

        When ``rng`` is omitted it is built from ``seed``; pass a shared
        generator (and ``seed`` for bookkeeping) to chain further draws such
        as the starting point.
        """
        if m < n or n < 1:
            raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
        rng = as_generator(seed if rng is None else rng)
        p_orth = random_orthonormal(m, m, rng)
        r_orth = random_orthonormal(m, m, rng)
        diag = cls._diagonal(m, ptype, rng)
        a = p_orth @ (diag[:, None] * r_orth.T)
        q_refl = householder_reflector(rng.standard_normal(n))
        lam = rng.uniform(0.5, 2.0, size=n)
        c = q_refl @ (lam[:, None] * q_refl.T)
        c = 0.5 * (c + c.T)
        if known_solution:
            q_star = random_orthonormal(m, n, rng)
            b = a @ q_star @ c
            return cls(a, c, b, ptype=ptype, solution=q_star, seed=seed)
        b = rng.random((m, n))
        return cls(a, c, b, ptype=ptype, solution=None, seed=seed)

    def value(self, x: np.ndarray) -> float:
        r = self.a @ x @ self.c - self.b
        return 0.5 * float(np.sum(r * r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        r = self.a @ x @ self.c - self.b
        return self.a.T @ r @ self.c.T

    def to_dict(self) -> dict:
        return {
            "family": "wopp",
            "ptype": self.ptype,
            "m": self.shape[0],
            "n": self.shape[1],
            "seed": self.seed,
            "a": self.a.tolist(),
            "c": self.c.tolist(),
            "b": self.b.tolist(),
            "solution": None if self.solution is None else self.solution.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WoppProblem":
        return cls(
            np.asarray(data["a"]),
            np.asarray(data["c"]),
            np.asarray(data["b"]),
            ptype=data.get("ptype"),
            solution=None if data.get("solution") is None else np.asarray(data["solution"]),
            seed=data.get("seed"),
        )


# ---------------------------------------------------------------------------
# Coupled total energy with a tridiagonal stiffness matrix
# ---------------------------------------------------------------------------


class EnergyProblem:
    """Total energy ``0.5*tr(X^T L X) + (mu/4) * rho(X)^T L^{-1} rho(X)``.

    ``L`` is the ``n x n`` tridiagonal matrix with 2 on the diagonal and -1
    off it (symmetric positive definite), ``rho(X) = diag(X X^T)`` the row
    density of the ``(n, k)`` variable, and ``mu >= 0`` the coupling weight.
    ``mu = 0`` reduces to the plain quadratic form.

    The Cholesky factorization of ``L`` is computed once in banded form and
    reused by every evaluation.
    """

    def __init__(self, n: int, k: int, mu: float = 1.0):
        if n < k or k < 1:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = float(mu)
        self.shape = (n, k)
        self.name = "energy"
        ab = np.zeros((2, n))
        ab[0, 1:] = -1.0
        ab[1, :] = 2.0
        self._chol = cholesky_banded(ab, lower=False)

    def laplacian(self) -> np.ndarray:
        """Dense copy of ``L`` (for tests and hand checks)."""
        n = self.shape[0]
        lap = 2.0 * np.eye(n)
        idx = np.arange(n - 1)
        lap[idx, idx + 1] = -1.0
        lap[idx + 1, idx] = -1.0
        return lap

    def _apply_l(self, x: np.ndarray) -> np.ndarray:
        lx = 2.0 * x
        lx[:-1] -= x[1:]
        lx[1:] -= x[:-1]
        return lx

    def _solve_l(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self._chol, False), rhs)

    def row_density(self, x: np.ndarray) -> np.ndarray:
        """``rho(X) = diag(X X^T)``, the vector of squared row norms."""
        x = as_matrix(x, "x")
        return np.einsum("ij,ij->i", x, x)

    def value(self, x: np.ndarray) -> float:
        x = as_matrix(x, "x")
        lx = self._apply_l(x)
        quad = 0.5 * float(np.sum(x * lx))
        if self.mu == 0.0:
            return quad
        rho = self.row_density(x)
        return quad + 0.25 * self.mu * float(rho @ self._solve_l(rho))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, "x")
        lx = self._apply_l(x)
        if self.mu == 0.0:
            return lx
        y = self._solve_l(self.row_density(x))
        return lx + self.mu * y[:, None] * x

    def kkt_residual(self, x: np.ndarray) -> float:
        """The solver's stationarity residual :func:`~stiefelopt.solver.kkt_residual`
        at a feasible ``x``."""
        return kkt_residual(x, self.gradient(x))

    def to_dict(self) -> dict:
        return {
            "family": "energy",
            "n": self.shape[0],
            "k": self.shape[1],
            "mu": self.mu,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EnergyProblem":
        return cls(data["n"], data["k"], data["mu"])


# ---------------------------------------------------------------------------
# Dominant eigenspace via trace minimization
# ---------------------------------------------------------------------------


class EigProblem:
    """Minimize ``-trace(X^T A X)`` for symmetric positive semidefinite ``A``.

    Minimizers are orthonormal bases of the eigenspace of the ``p`` largest
    eigenvalues, so the final trace can be scored against a dense
    eigensolver.
    """

    def __init__(self, a, p: int, oracle_eigs=None, seed=None):
        a = as_matrix(a, "a")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"a must be square, got {a.shape}")
        asym = frobenius_norm(a - a.T)
        if asym > 1e-10 * max(1.0, frobenius_norm(a)):
            raise ValueError(f"a must be symmetric, ||A - A^T||_F = {asym:.3e}")
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        self.a = 0.5 * (a + a.T)  # exactly symmetric
        self.p = p
        self.oracle_eigs = (
            None if oracle_eigs is None else np.asarray(oracle_eigs, dtype=np.float64)
        )
        if self.oracle_eigs is not None and self.oracle_eigs.shape != (p,):
            raise ValueError(
                f"oracle_eigs must have shape ({p},), got {self.oracle_eigs.shape}"
            )
        self.seed = seed
        self.shape = (n, p)
        self.name = "eig"

    @classmethod
    def generate(
        cls, n: int, p: int, rng=None, with_oracle: bool = True, seed: int | None = None
    ) -> "EigProblem":
        """Random Gram matrix ``A = M^T M`` for standard-normal ``M``;
        ``with_oracle`` stores the ``p`` largest eigenvalues from a dense
        symmetric eigensolver for later scoring."""
        rng = as_generator(seed if rng is None else rng)
        m = rng.standard_normal((n, n))
        a = m.T @ m
        a = 0.5 * (a + a.T)
        oracle = None
        if with_oracle:
            eigs = np.linalg.eigvalsh(a)
            oracle = eigs[::-1][:p].copy()
        return cls(a, p, oracle_eigs=oracle, seed=seed)

    def value(self, x: np.ndarray) -> float:
        return -float(np.sum(x * (self.a @ x)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return -2.0 * (self.a @ x)

    def relative_error(self, x: np.ndarray) -> float:
        """``|sum of top-p oracle eigenvalues - tr(X^T A X)| / |tr(X^T A X)|``."""
        if self.oracle_eigs is None:
            raise ValueError("instance has no oracle eigenvalues")
        estimate = float(np.sum(x * (self.a @ x)))
        target = float(np.sum(self.oracle_eigs))
        if estimate == 0.0:
            return math.inf
        return abs(target - estimate) / abs(estimate)

    def to_dict(self) -> dict:
        return {
            "family": "eig",
            "n": self.shape[0],
            "p": self.p,
            "seed": self.seed,
            "a": self.a.tolist(),
            "oracle_eigs": None
            if self.oracle_eigs is None
            else self.oracle_eigs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EigProblem":
        return cls(
            np.asarray(data["a"]),
            data["p"],
            oracle_eigs=data.get("oracle_eigs"),
            seed=data.get("seed"),
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FAMILIES = {"wopp": WoppProblem, "energy": EnergyProblem, "eig": EigProblem}


def problem_from_dict(data: dict):
    """Rebuild a problem from its :meth:`to_dict` form."""
    family = data.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    return _FAMILIES[family].from_dict(data)


def save_problem(problem, path) -> None:
    """Write a problem instance as JSON (dims, type tag, seed, dense data)."""
    Path(path).write_text(json.dumps(problem.to_dict()), encoding="utf-8")


def load_problem(path):
    """Inverse of :func:`save_problem`."""
    return problem_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
