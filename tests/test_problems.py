"""Benchmark objectives: generators, analytic gradients vs the
finite-difference oracle, hand-computed values, and JSON round-trips."""

import inspect
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded

from stiefelopt import (
    CallableObjective,
    EigProblem,
    EnergyProblem,
    StiefelPoint,
    WoppProblem,
    as_generator,
    fd_gradient,
    frobenius_norm,
    gradient_split,
    load_problem,
    problem_from_dict,
    random_orthonormal,
    save_problem,
)
from stiefelopt.cli import _DEFAULTS, _build_instance
from stiefelopt.problems import _FAMILIES, _householder_reflector

from helpers import traced_peak


def _fd_check(problem, x, rtol=1e-6):
    analytic = problem.gradient(x)
    numeric = fd_gradient(problem, x, h=1e-6)
    assert np.linalg.norm(numeric - analytic) <= rtol * np.linalg.norm(analytic)


# -- finite-difference oracle ------------------------------------------------------


def test_fd_gradient_on_analytic_cubic():
    # F(X) = sum X^3 elementwise has gradient 3 X^2; central differences of
    # a cubic are near-exact at h = 1e-6.
    objective = CallableObjective(
        fun=lambda x: float(np.sum(x**3)), grad=None, shape=(3, 2)
    )
    rng = as_generator(0)
    x = rng.standard_normal((3, 2))
    npt.assert_allclose(fd_gradient(objective, x), 3.0 * x**2, atol=1e-8)


def test_fd_gradient_validates_step():
    objective = CallableObjective(fun=lambda x: 0.0, grad=None, shape=(2, 2))
    with pytest.raises(ValueError, match="h must be > 0"):
        fd_gradient(objective, np.eye(2), h=0.0)


def test_callable_objective_wraps_and_coerces():
    objective = CallableObjective(
        fun=lambda x: x.sum(), grad=lambda x: np.ones_like(x, dtype=int), shape=(2, 2)
    )
    assert objective.value(np.eye(2)) == 2.0
    grad = objective.gradient(np.eye(2))
    assert grad.dtype == np.float64
    assert objective.name == "custom"


# -- weighted orthogonal Procrustes ---------------------------------------------------


def test_wopp_gradient_matches_oracle():
    rng = as_generator(1)
    for ptype in (1, 2, 3):
        problem = WoppProblem.generate(10, 4, ptype=ptype, rng=rng)
        _fd_check(problem, random_orthonormal(10, 4, rng))


def test_wopp_known_solution_is_a_global_minimum():
    problem = WoppProblem.generate(15, 4, ptype=2, seed=5)
    assert problem.solution is not None
    assert problem.value(problem.solution) == 0.0  # B was built as A Q* C
    assert problem.gradient(problem.solution) == pytest.approx(np.zeros((15, 4)))
    rng = as_generator(0)
    for _ in range(5):
        assert problem.value(random_orthonormal(15, 4, rng)) > 0.0


def test_wopp_random_rhs_has_no_solution_attribute():
    problem = WoppProblem.generate(10, 3, ptype=1, seed=2, known_solution=False)
    assert problem.solution is None
    assert np.all(problem.b >= 0.0) and np.all(problem.b < 1.0)


def test_wopp_conditioning_class_1_is_well_conditioned():
    sigma = np.linalg.svd(WoppProblem.generate(40, 5, ptype=1, seed=0).a, compute_uv=False)
    assert np.all(sigma >= 10.0 - 1e-9) and np.all(sigma <= 12.0 + 1e-9)
    assert sigma[0] / sigma[-1] <= 1.2


def test_wopp_conditioning_class_2_has_linear_spectrum():
    # Singular values are exactly the generated diagonal i + 2*U(0,1).
    sigma = np.sort(
        np.linalg.svd(WoppProblem.generate(30, 5, ptype=2, seed=1).a, compute_uv=False)
    )
    i = np.arange(1, 31)
    assert np.all(sigma > i) and np.all(sigma < i + 2)


def test_wopp_conditioning_class_3_is_ill_conditioned():
    sigma = np.linalg.svd(WoppProblem.generate(100, 5, ptype=3, seed=2).a, compute_uv=False)
    assert sigma[0] / sigma[-1] >= 30.0


def test_wopp_weight_matrix_is_spd_with_bounded_spectrum():
    problem = WoppProblem.generate(12, 6, ptype=1, seed=3)
    npt.assert_array_equal(problem.c, problem.c.T)
    eigs = np.linalg.eigvalsh(problem.c)
    assert np.all(eigs >= 0.5 - 1e-12) and np.all(eigs <= 2.0 + 1e-12)


def test_householder_hand_values():
    npt.assert_allclose(
        _householder_reflector(np.array([1.0, 0.0])), np.diag([-1.0, 1.0]), atol=1e-15
    )
    npt.assert_allclose(
        _householder_reflector(np.array([1.0, 1.0])),
        [[0.0, -1.0], [-1.0, 0.0]],
        atol=1e-15,
    )


def test_householder_is_symmetric_orthogonal_and_reflects_v():
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(6)
        q = _householder_reflector(v)
        npt.assert_allclose(q, q.T, atol=1e-14)
        npt.assert_allclose(q @ q, np.eye(6), atol=1e-13)
        npt.assert_allclose(q @ v, -v, atol=1e-13)


def test_wopp_generate_is_seed_deterministic():
    a = WoppProblem.generate(8, 3, ptype=2, seed=9)
    b = WoppProblem.generate(8, 3, ptype=2, seed=9)
    npt.assert_array_equal(a.a, b.a)
    npt.assert_array_equal(a.b, b.b)
    npt.assert_array_equal(a.c, b.c)


def test_wopp_name_carries_conditioning_class():
    assert WoppProblem.generate(6, 2, ptype=3, seed=0).name == "wopp-p3"
    assert WoppProblem(np.eye(3), np.eye(2), np.eye(3, 2)).name == "wopp"


def test_wopp_validates_inputs():
    with pytest.raises(ValueError, match="m >= n"):
        WoppProblem.generate(2, 3)
    # A bad ptype is refused before any draw: the shared generator has not moved.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="ptype"):
        WoppProblem.generate(4, 2, ptype=4, rng=rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="square"):
        WoppProblem(np.eye(3, 2), np.eye(2), np.eye(3, 2))
    with pytest.raises(ValueError, match="b must be"):
        WoppProblem(np.eye(3), np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="solution"):
        WoppProblem(np.eye(3), np.eye(2), np.eye(3, 2), solution=np.eye(2))


def test_wopp_round_trips_through_json(tmp_path):
    for known in (True, False):
        problem = WoppProblem.generate(7, 3, ptype=2, seed=11, known_solution=known)
        path = tmp_path / f"wopp_{known}.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert isinstance(loaded, WoppProblem)
        npt.assert_array_equal(loaded.a, problem.a)
        npt.assert_array_equal(loaded.b, problem.b)
        npt.assert_array_equal(loaded.c, problem.c)
        assert loaded.ptype == 2 and loaded.seed == 11
        if known:
            npt.assert_array_equal(loaded.solution, problem.solution)
        else:
            assert loaded.solution is None


# -- total energy ---------------------------------------------------------------------


def test_energy_hand_value():
    # n=2, k=1, mu=4, X=(1,0): quadratic part = 1; rho = (1,0) and
    # L^{-1} rho = (2/3, 1/3), so the pair term is (4/4)*(2/3) = 2/3.
    problem = EnergyProblem(2, 1, mu=4.0)
    x = np.array([[1.0], [0.0]])
    assert problem.value(x) == pytest.approx(5.0 / 3.0, rel=1e-14)
    npt.assert_allclose(
        problem.gradient(x), [[2.0 + 8.0 / 3.0], [-1.0]], atol=1e-13
    )


def test_energy_laplacian_structure():
    lap = EnergyProblem(5, 2).laplacian()
    npt.assert_array_equal(np.diag(lap), 2.0 * np.ones(5))
    npt.assert_array_equal(np.diag(lap, 1), -np.ones(4))
    npt.assert_array_equal(lap, lap.T)


def test_energy_stencil_and_banded_solve_match_dense_oracles():
    problem = EnergyProblem(12, 3, mu=1.5)
    lap = problem.laplacian()
    rng = as_generator(4)
    x = rng.standard_normal((12, 3))
    npt.assert_allclose(problem._apply_l(x.copy()), lap @ x, atol=1e-12)
    rho = problem.row_density(x)
    npt.assert_allclose(rho, np.diag(x @ x.T), atol=1e-12)
    npt.assert_allclose(problem._solve_l(rho), np.linalg.solve(lap, rho), atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 300), st.integers(-8, 8), st.integers(0, 2**32 - 1))
def test_energy_banded_solve_is_bit_equal_to_cho_solve_banded(n, exponent, seed):
    # _solve_l is the LAPACK pbtrs call cho_solve_banded ends in.
    problem = EnergyProblem(n, 1)
    rhs = 10.0**exponent * np.random.default_rng(seed).standard_normal(n)
    npt.assert_array_equal(problem._solve_l(rhs), cho_solve_banded((problem._chol, False), rhs))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_energy_refuses_a_non_finite_point(bad):
    # As cho_solve_banded's check_finite did: value, and a gradient that
    # finds nothing kept (a writable x is never kept), raise ValueError.
    problem = EnergyProblem(20, 3)
    x = random_orthonormal(20, 3, 1)
    x[7, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        problem.value(x)
    with pytest.raises(ValueError, match="infs or NaNs"):
        problem.gradient(x)
    with pytest.raises(ValueError, match="infs or NaNs"):
        problem._solve_l(problem.row_density(x))


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_energy_refuses_a_non_finite_mu(mu):
    # A NaN mu would make every value NaN, and the solve would then blame
    # the gradient, not the setting.
    with pytest.raises(ValueError, match="mu must be finite"):
        EnergyProblem(20, 3, mu=mu)


@pytest.mark.parametrize("mu", [10**400, -(10**400)], ids=["positive", "negative"])
def test_energy_refuses_an_int_mu_too_large_for_a_float(mu):
    # float(10**400) overflows: refused as a setting, not raised as OverflowError.
    with pytest.raises(ValueError, match="^mu must be finite and >= 0, got "):
        EnergyProblem(12, 3, mu=mu)


def test_energy_mu_zero_is_the_plain_quadratic():
    problem = EnergyProblem(9, 2, mu=0.0)
    lap = problem.laplacian()
    x = random_orthonormal(9, 2, 5)
    assert problem.value(x) == pytest.approx(0.5 * np.sum(x * (lap @ x)), rel=1e-13)
    npt.assert_allclose(problem.gradient(x), lap @ x, atol=1e-13)


def test_energy_gradient_matches_oracle():
    rng = as_generator(6)
    for mu in (0.0, 1.0, 4.0):
        problem = EnergyProblem(10, 3, mu=mu)
        _fd_check(problem, random_orthonormal(10, 3, rng))


def test_energy_validates_and_round_trips(tmp_path):
    with pytest.raises(ValueError, match="n >= k"):
        EnergyProblem(2, 3)
    with pytest.raises(ValueError, match="mu"):
        EnergyProblem(4, 2, mu=-1.0)
    problem = EnergyProblem(6, 2, mu=2.5)
    assert problem.to_dict() == {"family": "energy", "n": 6, "k": 2, "mu": 2.5}
    path = tmp_path / "energy.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert isinstance(loaded, EnergyProblem)
    assert loaded.shape == (6, 2) and loaded.mu == 2.5
    x = random_orthonormal(6, 2, 8)
    assert loaded.value(x) == problem.value(x)


# -- dominant eigenspace -----------------------------------------------------------------


def test_eig_hand_values_and_error_measure():
    problem = EigProblem(np.diag([3.0, 1.0]), 1, oracle_eigs=[3.0])
    bottom = np.array([[0.0], [1.0]])
    assert problem.value(bottom) == -1.0
    npt.assert_array_equal(problem.gradient(bottom), [[0.0], [-2.0]])
    # Trace at the bottom eigenvector is 1 vs oracle sum 3: error |3-1|/1.
    assert problem.relative_error(bottom) == pytest.approx(2.0)
    top = np.array([[1.0], [0.0]])
    assert problem.relative_error(top) == 0.0


def test_eig_error_is_infinite_for_zero_trace():
    problem = EigProblem(np.diag([1.0, -1.0]), 1, oracle_eigs=[1.0])
    x = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    assert problem.relative_error(x) == math.inf


def test_eig_generated_instances_are_psd_with_oracle():
    problem = EigProblem.generate(12, 3, seed=9)
    npt.assert_array_equal(problem.a, problem.a.T)
    eigs = np.linalg.eigvalsh(problem.a)
    assert np.all(eigs >= -1e-10)
    npt.assert_allclose(problem.oracle_eigs, eigs[::-1][:3], atol=1e-12)
    assert np.all(problem.oracle_eigs[:-1] >= problem.oracle_eigs[1:])
    assert EigProblem.generate(5, 2, with_oracle=False, seed=0).oracle_eigs is None


@pytest.mark.parametrize("p", [6, 0])
def test_eig_generate_refuses_p_before_any_draw(p):
    # The check comes before the O(n^3) draw, Gram product and oracle, so a
    # refused shape consumes none of the caller's stream.
    gen = as_generator(4)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="need 1 <= p <= n"):
        EigProblem.generate(5, p, rng=gen)
    assert gen.bit_generator.state == state
    npt.assert_array_equal(EigProblem.generate(5, 2, rng=gen).a,
                           EigProblem.generate(5, 2, seed=4).a)


def test_eig_generate_holds_at_most_two_n_by_n_arrays():
    # M is released after A = M^T M and the oracle reads the stored A once the
    # caller's copy is gone, so eigvalsh's copy is the second n x n array.
    n, p = 300, 4
    problem, peak = traced_peak(lambda: EigProblem.generate(n, p, seed=7))
    assert peak < 2.5 * 8 * n * n
    m = as_generator(7).standard_normal((n, n))
    assert problem.a.tobytes() == (m.T @ m).tobytes()
    assert problem.oracle_eigs.tobytes() == np.linalg.eigvalsh(problem.a)[::-1][:p].tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 12), st.integers(-16, -12), st.integers(0, 2**32 - 1))
def test_eig_matrix_is_stored_exactly_symmetric(n, exponent, seed):
    # The gradient is -2 A X, and off the row-panel shapes products with A are
    # formed as (X^T A)^T, which reads A^T: that is A X only when A == A^T to
    # the bit, also for input that is symmetric only within the tolerance.
    rng = as_generator(seed)
    m = rng.standard_normal((n, n))
    m = m + m.T + 10.0**exponent * rng.standard_normal((n, n))
    a = EigProblem(m, 1).a
    assert np.array_equal(a, a.T)
    generated = EigProblem.generate(n, 1, rng=rng, with_oracle=False).a
    assert np.array_equal(generated, generated.T)


# St(16, 12) and St(100, 10) take (X^T A)^T; St(300, 12) and St(1000, 10) take row panels.
@settings(deadline=None, max_examples=20)
@given(st.sampled_from([(16, 12), (100, 10), (300, 12), (1000, 10)]), st.integers(0, 2**32 - 1))
def test_eig_value_and_gradient_match_a_times_x(shape, seed):
    # On OpenBLAS, (X^T A)^T and A X differ in their last bits at the first two
    # shapes.  The gradient is C-ordered, which gradient_split keeps without a copy.
    n, p = shape
    problem = EigProblem.generate(n, p, with_oracle=False, seed=seed)
    x = StiefelPoint(random_orthonormal(n, p, seed)).x
    ax = problem.a @ x
    if n >= 300:
        panels = problem._times_a(x)
        assert frobenius_norm(panels - ax) <= 1e-14 * frobenius_norm(ax)
        assert panels.flags.c_contiguous
    expected = -np.sum(x * ax)
    assert abs(problem.value(x) - expected) <= 1e-13 * abs(expected)
    for grad in (problem.gradient(x), problem.gradient(x.copy())):  # memo hit, then miss
        assert frobenius_norm(grad + 2.0 * ax) <= 1e-13 * frobenius_norm(2.0 * ax)
        assert grad.flags.c_contiguous
        assert grad.tobytes() == (-2.0 * problem._times_a(x)).tobytes()


@pytest.mark.parametrize("n, p", [(60, 4), (1000, 40)])
def test_eig_product_keeps_the_transposed_orientation_off_the_panel_shapes(n, p):
    # A small A (one panel would be all of it) and a wide X (p > 20) keep
    # (X^T A)^T to the bit: row panels were timed slower there.
    problem = EigProblem.generate(n, p, with_oracle=False, seed=5)
    x = StiefelPoint(random_orthonormal(n, p, 5)).x
    assert problem._times_a(x).tobytes() == (x.T @ problem.a).T.tobytes()


def test_eig_gradient_matches_oracle():
    rng = as_generator(10)
    problem = EigProblem.generate(9, 3, rng=rng)
    _fd_check(problem, random_orthonormal(9, 3, rng))


def test_eig_validates_inputs():
    with pytest.raises(ValueError, match="symmetric"):
        EigProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
    with pytest.raises(ValueError, match="square"):
        EigProblem(np.ones((3, 2)), 1)
    with pytest.raises(ValueError, match="1 <= p <= n"):
        EigProblem(np.eye(3), 4)
    with pytest.raises(ValueError, match="oracle_eigs"):
        EigProblem(np.eye(3), 2, oracle_eigs=[1.0])
    with pytest.raises(ValueError, match="no oracle"):
        EigProblem(np.eye(3), 2).relative_error(np.eye(3, 2))


def test_eig_round_trips_through_json(tmp_path):
    problem = EigProblem.generate(8, 2, seed=13)
    path = tmp_path / "eig.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert isinstance(loaded, EigProblem)
    npt.assert_array_equal(loaded.a, problem.a)
    npt.assert_array_equal(loaded.oracle_eigs, problem.oracle_eigs)
    assert loaded.p == 2 and loaded.seed == 13


def test_problem_from_dict_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        problem_from_dict({"family": "lasso"})
    data = json.loads(json.dumps(EnergyProblem(4, 2).to_dict()))
    assert isinstance(problem_from_dict(data), EnergyProblem)
    # Every constructor argument must be saved; a key that is not one is ignored.
    for problem, key in (
        (EnergyProblem(4, 2), "mu"),
        (WoppProblem.generate(4, 2, seed=3), "seed"),
        (EigProblem.generate(4, 2, seed=5), "p"),
    ):
        data = json.loads(json.dumps(problem.to_dict()))
        assert type(problem_from_dict({**data, "note": "extra"})) is type(problem)
        del data[key]
        with pytest.raises(KeyError, match=f"^'{key}'$"):
            problem_from_dict(data)


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_a_families_json_form_is_its_constructors_arguments(family):
    # to_dict and problem_from_dict both read the constructor, so a family gets
    # its JSON form from its class; a file that also carries the dimension keys
    # written before, such as m and n for WOPP, still loads.
    cfg = {key: default for key, (default, _) in _DEFAULTS.items()}
    cfg.update(family=family, n=7, p=3, known_solution=True, mu=2.5)
    problem, x, _, _ = _build_instance(cfg, seed=4)
    data = json.loads(json.dumps(problem.to_dict()))
    assert list(data) == ["family", *inspect.signature(_FAMILIES[family]).parameters]
    for loaded in (problem_from_dict(data), problem_from_dict({"m": 0, "n": 0, **data})):
        assert type(loaded) is _FAMILIES[family]
        assert loaded.value(x) == problem.value(x)
        npt.assert_array_equal(loaded.gradient(x), problem.gradient(x))


# -- work shared between value and gradient ----------------------------------------------


def _family(name, n, p, seed):
    """An instance of one family at shape (n, p)."""
    if name == "wopp":
        return WoppProblem.generate(n, p, ptype=2, seed=seed)
    if name == "energy":
        return EnergyProblem(n, p, mu=float(seed % 3))  # mu = 0 included
    return EigProblem.generate(n, p, seed=seed)


FAMILIES = ["wopp", "energy", "eig"]


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(FAMILIES),
    st.integers(1, 12).flatmap(lambda p: st.tuples(st.integers(p, 16), st.just(p))),
    st.integers(0, 2**32 - 1),
)
def test_gradient_after_value_is_bit_equal_to_a_fresh_gradient(name, shape, seed):
    n, p = shape
    problem = _family(name, n, p, seed)
    x = StiefelPoint(random_orthonormal(n, p, seed)).x
    fresh = problem.gradient(x.copy())
    problem.value(x)
    shared = problem.gradient(x)
    assert shared.tobytes() == fresh.tobytes()
    assert problem.gradient(x).tobytes() == fresh.tobytes()  # slot taken: recomputed


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 30).flatmap(lambda p: st.tuples(st.integers(p, 40), st.just(p))),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_in_place_rewrites_keep_the_plain_formulas_bits(shape, mu, seed):
    # The energy gradient and the WOPP residual take their difference or sum
    # in place; the result has the bits of the plain expression.
    n, p = shape
    x = StiefelPoint(random_orthonormal(n, p, seed)).x
    energy = EnergyProblem(n, p, mu=mu)
    lx = energy._apply_l(x)
    y = energy._solve_l(energy.row_density(x))
    assert energy.gradient(x).tobytes() == (lx + energy.mu * y[:, None] * x).tobytes()
    wopp = WoppProblem.generate(n, p, ptype=1 + seed % 3, seed=seed,
                                known_solution=seed % 2 == 0)
    r = wopp.a @ x @ wopp.c - wopp.b
    assert wopp.value(x) == 0.5 * float(np.sum(r**2))
    assert wopp.gradient(x).tobytes() == (wopp.a.T @ r @ wopp.c.T).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["energy", "eig"]),
    st.integers(1, 12).flatmap(lambda p: st.tuples(st.integers(p, 16), st.just(p))),
    st.integers(0, 2**32 - 1),
)
def test_rotation_invariant_families_split_into_equal_components(name, shape, seed):
    # F(XQ) = F(X) for orthogonal Q makes X^T G symmetric, so
    # G - X G^T X = G - X X^T G: every alpha/beta mix points the same way.
    n, p = shape
    problem = _family(name, n, p, seed)
    point = StiefelPoint(random_orthonormal(n, p, seed))
    grad = problem.gradient(point.x)
    split = gradient_split(point, grad)
    assert frobenius_norm(split.canonical - split.complement) <= 1e-13 * frobenius_norm(grad)


def test_wopp_split_components_differ():
    # WOPP lacks that invariance: X^T G is not symmetric, so the mix matters.
    problem = WoppProblem.generate(20, 4, ptype=1, seed=0)
    point = StiefelPoint(random_orthonormal(20, 4, 1))
    grad = problem.gradient(point.x)
    split = gradient_split(point, grad)
    assert frobenius_norm(split.canonical - split.complement) > 1e-2 * frobenius_norm(grad)


@pytest.mark.parametrize("name", FAMILIES)
def test_writable_array_mutated_after_value_gets_a_fresh_gradient(name):
    # fd_gradient's pattern: one writable work array, changed in place
    # between calls.
    problem = _family(name, 9, 3, 1)
    w = random_orthonormal(9, 3, 2)
    problem.value(w)
    w[0, 0] += 0.5
    npt.assert_array_equal(problem.gradient(w), problem.gradient(w.copy()))
    # Read-only at value, made writable and changed before gradient.
    x = random_orthonormal(9, 3, 3)
    x.setflags(write=False)
    problem.value(x)
    x.setflags(write=True)
    x[0, 0] += 0.5
    npt.assert_array_equal(problem.gradient(x), problem.gradient(x.copy()))


@pytest.mark.parametrize("name", FAMILIES)
def test_read_only_view_of_a_writable_base_is_not_kept(name):
    problem = _family(name, 9, 3, 3)
    base = random_orthonormal(9, 3, 4)
    view = base[:]
    view.setflags(write=False)
    problem.value(view)
    base[1, 2] -= 0.5  # the view sees the change
    npt.assert_array_equal(problem.gradient(view), problem.gradient(view.copy()))


@pytest.mark.parametrize("name", FAMILIES)
def test_gradient_at_another_point_is_not_served_from_the_slot(name):
    problem = _family(name, 9, 3, 5)
    x = StiefelPoint(random_orthonormal(9, 3, 6)).x
    y = StiefelPoint(random_orthonormal(9, 3, 7)).x
    problem.value(x)
    npt.assert_array_equal(problem.gradient(y), problem.gradient(y.copy()))
    npt.assert_array_equal(problem.gradient(x), problem.gradient(x.copy()))
