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

import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import cholesky_banded, lapack

from .linalg import as_generator, as_matrix, frobenius_norm, random_orthonormal

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


class _SharedWork:
    """One-slot memo of the work ``value(x)`` shares with ``gradient(x)``.

    The solver asks for ``gradient(x)`` only right after ``value(x)`` at the
    same read-only array, so ``value`` keeps its costliest intermediate and
    ``gradient`` takes it instead of recomputing it.  Only a read-only array
    that owns its data (every ``StiefelPoint.x``) is kept: a writable array or
    a view can change between the two calls, as ``fd_gradient``'s work array
    does.  The slot holds ``x`` itself and matches by identity, so a reused
    address never matches; taking empties it, so no iterate outlives its
    gradient.  A miss only recomputes, so callers sharing one problem across
    threads still get exact results.  A failed line search asks for no
    gradient, so its last rejected trial and that trial's intermediate (two
    ``n x p`` arrays, plus an ``n``-vector for energy) stay in the slot until
    the problem's next ``value`` call: memory held, never a changed result.
    An idle :class:`EigProblem` also holds its last iterate and that iterate's
    ``A X`` (one more ``n x p`` array), which its ``gradient`` keeps for the
    line search that follows.
    """

    _memo: tuple | None = None

    @staticmethod
    def _frozen(x) -> bool:
        """Whether ``x`` is a read-only array that owns its data, so cannot change."""
        return isinstance(x, np.ndarray) and not x.flags.writeable and x.base is None

    def _keep(self, x, work):
        """Store ``work`` as the intermediate at ``x`` when ``x`` cannot change."""
        self._memo = (x, work) if self._frozen(x) else None

    def _take(self, x):
        """The intermediate kept at this very ``x``, or None; empties the slot."""
        memo, self._memo = self._memo, None
        if memo is not None and memo[0] is x and not x.flags.writeable:
            return memo[1]
        return None

    def to_dict(self) -> dict:
        """``family`` plus each constructor argument, read from the attribute of
        its name, arrays as lists: the form :func:`problem_from_dict` reads."""
        out = {"family": self.family}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            out[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


# ---------------------------------------------------------------------------
# Weighted orthogonal Procrustes
# ---------------------------------------------------------------------------


def _householder_reflector(v: np.ndarray) -> np.ndarray:
    """The reflection ``I - 2 v v^T / (v^T v)`` of a nonzero float64 vector:
    symmetric and orthogonal."""
    vtv = float(v @ v)
    return np.eye(v.size) - (2.0 / vtv) * np.outer(v, v)


class WoppProblem(_SharedWork):
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

    family = "wopp"

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
        self.name = f"{self.family}-p{ptype}" if ptype is not None else self.family

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
        return 1.0 + 99.0 * (i - 1.0) / (m + 1.0) + 2.0 * rng.random(m)

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
        if ptype not in (1, 2, 3):
            raise ValueError(f"ptype must be 1, 2 or 3, got {ptype}")
        rng = as_generator(seed if rng is None else rng)
        p_orth = random_orthonormal(m, m, rng)
        r_orth = random_orthonormal(m, m, rng)
        diag = cls._diagonal(m, ptype, rng)
        a = p_orth @ (diag[:, None] * r_orth.T)
        q_refl = _householder_reflector(rng.standard_normal(n))
        lam = rng.uniform(0.5, 2.0, size=n)
        c = q_refl @ (lam[:, None] * q_refl.T)
        c = 0.5 * (c + c.T)
        if known_solution:
            q_star = random_orthonormal(m, n, rng)
            b = a @ q_star @ c
            return cls(a, c, b, ptype=ptype, solution=q_star, seed=seed)
        b = rng.random((m, n))
        return cls(a, c, b, ptype=ptype, solution=None, seed=seed)

    def _residual(self, x: np.ndarray) -> np.ndarray:
        """``A X C - B``, the difference taken in place in the product."""
        r = self.a @ x @ self.c
        r -= self.b
        return r

    def value(self, x: np.ndarray) -> float:
        r = self._residual(x)
        self._keep(x, r)
        return 0.5 * float(np.sum(r * r))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        r = self._take(x)
        if r is None:
            r = self._residual(x)
        return self.a.T @ r @ self.c.T


# ---------------------------------------------------------------------------
# Coupled total energy with a tridiagonal stiffness matrix
# ---------------------------------------------------------------------------


def _checked_mu(mu) -> float:
    """``mu`` as a float; :class:`ValueError` unless it is finite and >= 0."""
    try:
        finite = 0 <= mu and math.isfinite(mu)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return float(mu)


class EnergyProblem(_SharedWork):
    """Total energy ``0.5*tr(X^T L X) + (mu/4) * rho(X)^T L^{-1} rho(X)``.

    ``L`` is the ``n x n`` tridiagonal matrix with 2 on the diagonal and -1
    off it (symmetric positive definite), ``rho(X) = diag(X X^T)`` the row
    density of the ``(n, k)`` variable, and a finite ``mu >= 0`` the coupling
    weight. ``mu = 0`` reduces to the plain quadratic form.

    The Cholesky factorization of ``L`` is computed once in banded form; each
    ``L^{-1} rho`` is one LAPACK ``pbtrs`` call on it, as in ``cho_solve_banded``.
    """

    family = name = "energy"

    def __init__(self, n: int, k: int, mu: float = 1.0):
        if n < k or k < 1:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        self.mu = _checked_mu(mu)
        self.n, self.k = self.shape = (n, k)
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
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        y, info = lapack.dpbtrs(self._chol, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrs failed with info={info}")
        return y

    def row_density(self, x: np.ndarray) -> np.ndarray:
        """``rho(X) = diag(X X^T)``, the vector of squared row norms."""
        return np.einsum("ij,ij->i", x, x)

    def value(self, x: np.ndarray) -> float:
        lx = self._apply_l(x)
        rho = self.row_density(x)
        y = self._solve_l(rho)
        self._keep(x, (lx, y))
        return 0.5 * float(np.sum(x * lx)) + 0.25 * self.mu * float(rho @ y)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        lx, y = self._take(x) or (self._apply_l(x), self._solve_l(self.row_density(x)))
        # The bits of lx + mu * y[:, None] * x, summed into the one n x p product.
        g = (self.mu * y)[:, None] * x
        g += lx
        return g


# ---------------------------------------------------------------------------
# Dominant eigenspace via trace minimization
# ---------------------------------------------------------------------------


#: ``EigProblem._times_a`` takes ``A X`` in row panels of at most this many
#: multiply-adds (rows x n x p): up to it OpenBLAS 0.3.31 multiplies without
#: packing ``A`` into its blocked buffers, which a 10-column ``X`` never repays.
_PANEL_WORK = 10**6
#: Panels are taken only for ``p`` up to this and at least this many rows each;
#: elsewhere on the timed grid ``(X^T A)^T`` is as fast or faster.
_PANEL_MAX_P, _PANEL_MIN_ROWS = 20, 32


class EigProblem(_SharedWork):
    """Minimize ``-trace(X^T A X)`` for symmetric positive semidefinite ``A``.

    Minimizers are orthonormal bases of the eigenspace of the ``p`` largest
    eigenvalues, so the final trace can be scored against a dense
    eigensolver.

    Every product with ``A`` is :meth:`_times_a`: row panels ``A[i:i+r] @ X``
    for a thin ``X`` at sizes where they were timed faster (St(1000, 10) among
    them), else ``(X^T A)^T``.  The latter equals ``A X`` to roundoff because
    ``A`` is stored exactly symmetric (``0.5 * (A + A^T)``).  Timings are in
    the README.

    ``gradient`` keeps the ``A X`` it takes at a read-only iterate.  The line
    search reads it and a rejected trial's ``A Z`` through :meth:`_product`,
    then values the later trials with :meth:`_value_from` at products formed
    along the retraction curve: a backtracked trial costs ``O(n p^2)``, not a
    product with ``A``.
    """

    family = name = "eig"
    _at_iterate: tuple | None = None

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
        # Rows in each panel of A X, or 0 where _times_a takes (X^T A)^T.
        rows = _PANEL_WORK // (n * p)
        self._panel_rows = rows if p <= _PANEL_MAX_P and _PANEL_MIN_ROWS <= rows < n else 0

    @classmethod
    def generate(
        cls, n: int, p: int, rng=None, with_oracle: bool = True, seed: int | None = None
    ) -> "EigProblem":
        """Random Gram matrix ``A = M^T M`` for standard-normal ``M``;
        ``with_oracle`` stores the ``p`` largest eigenvalues from a dense
        symmetric eigensolver for later scoring.

        At most two ``n x n`` arrays are alive at once: ``M`` is released
        after the Gram product, and the oracle reads the stored ``A`` after
        the caller's copy is gone (``eigvalsh`` holds the second)."""
        if not 1 <= p <= n:
            raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
        rng = as_generator(seed if rng is None else rng)
        m = rng.standard_normal((n, n))
        a = m.T @ m  # exactly symmetric as numpy forms it
        del m
        problem = cls(a, p, seed=seed)
        del a  # problem.a is its bit-equal copy, 0.5 * (A + A^T)
        if with_oracle:
            eigs = np.linalg.eigvalsh(problem.a)
            problem.oracle_eigs = eigs[::-1][:p].copy()
        return problem

    def _times_a(self, x: np.ndarray) -> np.ndarray:
        """``A X``: for a thin ``X``, C-ordered, from row panels ``A[i:i+r] @ X``
        of ``r = 10**6 // (n p)`` rows, the products OpenBLAS takes without
        repacking ``A``; else F-ordered, as ``(X^T A)^T`` (``A`` is exactly
        symmetric).  ``__init__`` chooses from ``n`` and ``p`` alone: panels
        where they were timed faster, ``p <= 20`` and ``32 <= r < n`` (grid in
        the README)."""
        rows = self._panel_rows
        if not rows:
            return (x.T @ self.a).T
        n, p = x.shape
        ax = np.empty((n, p))
        full = n - n % rows  # one batched call over the full panels, then the ragged one
        np.matmul(self.a[:full].reshape(-1, rows, n), x, out=ax[:full].reshape(-1, rows, p))
        if full < n:
            np.matmul(self.a[full:], x, out=ax[full:])
        return ax

    def value(self, x: np.ndarray) -> float:
        return self._value_from(x, self._times_a(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        ax = self._take(x)
        if ax is None:
            ax = self._times_a(x)
        self._at_iterate = (x, ax) if self._frozen(x) else None
        return np.multiply(ax, -2.0, order="C")  # ax may be F-ordered; the split wants C

    def _value_from(self, x: np.ndarray, ax: np.ndarray) -> float:
        """``value(x)`` given ``A X``, which is kept for the gradient as ``value``'s own is."""
        self._keep(x, ax)
        return -float(np.sum(x * ax))

    def _product(self, x: np.ndarray):
        """The ``A X`` last kept at this very read-only ``x``, by ``value`` or by
        ``gradient``, or None.  Unlike ``_take`` it leaves both slots as they are."""
        for kept in (self._memo, self._at_iterate):
            if kept is not None and kept[0] is x and not x.flags.writeable:
                return kept[1]
        return None

    def relative_error(self, x: np.ndarray) -> float:
        """``|sum of top-p oracle eigenvalues - tr(X^T A X)| / |tr(X^T A X)|``."""
        if self.oracle_eigs is None:
            raise ValueError("instance has no oracle eigenvalues")
        estimate = float(np.sum(x * self._times_a(x)))
        target = float(np.sum(self.oracle_eigs))
        if estimate == 0.0:
            return math.inf
        return abs(target - estimate) / abs(estimate)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FAMILIES = {cls.family: cls for cls in (WoppProblem, EnergyProblem, EigProblem)}


def problem_from_dict(data: dict):
    """Rebuild a problem from its :meth:`to_dict` form: the family's constructor
    called with the keys named after its parameters.  Each must be present (a
    missing one raises ``KeyError`` naming it); other keys are ignored."""
    family = data.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    cls = _FAMILIES[family]
    return cls(**{name: data[name] for name in inspect.signature(cls).parameters})


def save_problem(problem, path) -> None:
    """Write a problem instance as JSON: its ``family`` and constructor arguments."""
    Path(path).write_text(json.dumps(problem.to_dict()), encoding="utf-8")


def load_problem(path):
    """Inverse of :func:`save_problem`."""
    return problem_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
