"""Solver tests: feasibility, KKT conditions, scipy-QP cross-check, and
bit-for-bit agreement with the reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.errors import ConfigurationError, ConvergenceError
from repro.svm import (LinearKernel, PolynomialKernel, RBFKernel, SMOResult,
                       solve_one_class_smo)
from repro.svm.smo import _BOUND_EPS, _initial_alpha, _recover_rho


def _gram(n=20, d=2, seed=0, gamma=0.5):
    x = np.random.default_rng(seed).normal(size=(n, d))
    return RBFKernel(gamma)(x, x)


def _reference_qp(q, nu):
    """Small-scale reference solution via SLSQP."""
    n = q.shape[0]
    c = 1.0 / (nu * n)
    x0 = np.full(n, 1.0 / n)
    res = minimize(
        lambda a: 0.5 * a @ q @ a,
        x0,
        jac=lambda a: q @ a,
        bounds=[(0.0, c)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                      "jac": lambda a: np.ones(n)}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return res.x


class TestFeasibility:
    @pytest.mark.parametrize("nu", [0.05, 0.2, 0.5, 0.9, 1.0])
    def test_constraints_hold(self, nu):
        q = _gram()
        result = solve_one_class_smo(q, nu)
        c = 1.0 / (nu * q.shape[0])
        assert result.alpha.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.alpha.min() >= -1e-12
        assert result.alpha.max() <= c + 1e-12

    def test_single_point(self):
        q = np.array([[1.0]])
        result = solve_one_class_smo(q, 0.5)
        assert result.alpha == pytest.approx([1.0])

    def test_tiny_nu_spreads_mass(self):
        q = _gram(n=10)
        result = solve_one_class_smo(q, 0.05)
        # C = 2.0 > 1, a single alpha can carry everything if optimal.
        assert result.alpha.sum() == pytest.approx(1.0)


class TestKKT:
    @pytest.mark.parametrize("nu", [0.2, 0.5, 0.8])
    def test_gradient_structure(self, nu):
        q = _gram(n=25, seed=3)
        result = solve_one_class_smo(q, nu, tol=1e-6)
        assert result.converged
        c = 1.0 / (nu * q.shape[0])
        gradient = q @ result.alpha
        free = (result.alpha > 1e-8) & (result.alpha < c - 1e-8)
        at_zero = result.alpha <= 1e-8
        at_c = result.alpha >= c - 1e-8
        if free.any():
            assert np.allclose(gradient[free], result.rho, atol=1e-4)
        if at_zero.any():
            assert gradient[at_zero].min() >= result.rho - 1e-4
        if at_c.any():
            assert gradient[at_c].max() <= result.rho + 1e-4

    def test_objective_matches_reference_qp(self):
        for nu in (0.3, 0.6):
            q = _gram(n=15, seed=7)
            smo = solve_one_class_smo(q, nu, tol=1e-8)
            ref = _reference_qp(q, nu)
            obj_smo = 0.5 * smo.alpha @ q @ smo.alpha
            obj_ref = 0.5 * ref @ q @ ref
            assert obj_smo == pytest.approx(obj_ref, abs=1e-6)

    @given(seed=st.integers(0, 100), nu=st.floats(0.1, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_property_feasible_and_no_worse_than_uniform(self, seed, nu):
        q = _gram(n=12, seed=seed)
        result = solve_one_class_smo(q, nu, tol=1e-6)
        n = q.shape[0]
        c = 1.0 / (nu * n)
        assert result.alpha.sum() == pytest.approx(1.0, abs=1e-8)
        assert -1e-10 <= result.alpha.min()
        assert result.alpha.max() <= c + 1e-10
        uniform = np.full(n, 1.0 / n)
        if np.all(uniform <= c + 1e-12):
            assert (0.5 * result.alpha @ q @ result.alpha
                    <= 0.5 * uniform @ q @ uniform + 1e-8)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_one_class_smo(np.zeros((2, 3)), 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_one_class_smo(np.zeros((0, 0)), 0.5)

    @pytest.mark.parametrize("nu", [0.0, -0.5, 1.5])
    def test_bad_nu_rejected(self, nu):
        with pytest.raises(ConfigurationError):
            solve_one_class_smo(np.eye(3), nu)

    def test_strict_convergence_error(self):
        from repro.errors import ConvergenceError

        q = _gram(n=30, seed=5)
        with pytest.raises(ConvergenceError):
            solve_one_class_smo(q, 0.5, tol=1e-14, max_iter=2, strict=True)


def _reference_smo(q, nu, *, linear=None, tol=1e-4, max_iter=100_000,
                   strict=False):
    """The solver's loop as it was before it made fewer numpy calls per
    step: a mask, a ``where`` and an argmin/argmax per set, and numpy
    scalar arithmetic.  The solver must return exactly what this does."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    c = 1.0 / (nu * n)
    alpha = _initial_alpha(n, nu)
    gradient = q @ alpha
    if linear is not None:
        gradient = gradient + linear
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        can_grow = alpha < c - _BOUND_EPS
        can_shrink = alpha > _BOUND_EPS
        if not can_grow.any() or not can_shrink.any():
            converged = True
            break
        i = int(np.argmin(np.where(can_grow, gradient, np.inf)))
        j = int(np.argmax(np.where(can_shrink, gradient, -np.inf)))
        violation = gradient[j] - gradient[i]
        if violation < tol:
            converged = True
            break
        quad = q[i, i] + q[j, j] - 2.0 * q[i, j]
        quad = max(quad, 1e-12)
        delta = violation / quad
        delta = min(delta, c - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        gradient += delta * (q[:, i] - q[:, j])
        n_iter += 1
    if not converged and strict:
        raise ConvergenceError("reference loop did not converge")
    return SMOResult(alpha=alpha, rho=_recover_rho(alpha, gradient, c),
                     n_iter=n_iter, converged=converged)


@st.composite
def _problems(draw):
    """A one-class dual over random rows, some of them duplicates: an
    RBF, linear or polynomial Gram, as the OCSVM or SVDD poses it."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, draw(st.integers(1, 6))))
    n_dup = draw(st.integers(0, n - 1))
    x[rng.integers(0, n, n_dup)] = x[rng.integers(0, n, n_dup)]
    kernel = draw(st.sampled_from([
        RBFKernel("scale"), LinearKernel(),
        PolynomialKernel(degree=2, gamma=0.5)])).prepare(x)
    gram = kernel.compute(x, x)
    kwargs = {
        "tol": draw(st.sampled_from([1e-4, 1e-5, 1e-8])),
        "max_iter": draw(st.sampled_from([1, 5, 50, 100_000])),
        "strict": draw(st.booleans()),
    }
    nu = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):  # SVDD: Q' = 2K, p = -diag(K)
        return 2.0 * gram, nu, {**kwargs, "linear": -np.diag(gram).copy()}
    return gram, nu, kwargs


class TestReferenceLoop:
    @given(problem=_problems())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_reference_loop(self, problem):
        q, nu, kwargs = problem
        try:
            want = _reference_smo(q.copy(), nu, **kwargs)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                solve_one_class_smo(q, nu, **kwargs)
            return
        got = solve_one_class_smo(q, nu, **kwargs)
        assert np.array_equal(got.alpha, want.alpha)
        assert got.rho == want.rho
        assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
