"""SMO solver for the one-class SVM dual (paper Eq. 7-8).

Solves

    min_alpha  1/2 alpha^T Q alpha
    s.t.       sum_i alpha_i = 1,   0 <= alpha_i <= C,   C = 1/(nu*n)

by sequential minimal optimisation: at every step the maximal-violating
pair (i from the "can grow" set, j from the "can shrink" set, chosen by
the gradient G = Q alpha) is optimised analytically subject to the box
and the equality constraint, exactly the scheme LIBSVM uses for its
one-class machine.  The offset rho is recovered from the KKT conditions:
free support vectors (0 < alpha < C) satisfy G_i = rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.utils import check_in_range

__all__ = ["SMOResult", "solve_one_class_smo"]

#: Numerical slack when classifying alphas against the box bounds.
_BOUND_EPS = 1e-10


@dataclass(frozen=True)
class SMOResult:
    """Solution of the one-class dual."""

    alpha: np.ndarray
    rho: float
    n_iter: int
    converged: bool

    @property
    def support_mask(self) -> np.ndarray:
        return self.alpha > _BOUND_EPS


def _initial_alpha(n: int, nu: float) -> np.ndarray:
    """LIBSVM-style feasible start: front-load alpha at the box bound."""
    alpha = np.zeros(n)
    c = 1.0 / (nu * n)
    n_full = int(np.floor(nu * n))
    alpha[:n_full] = c
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * c
    return alpha


def solve_one_class_smo(
    q: np.ndarray,
    nu: float,
    *,
    linear: np.ndarray | None = None,
    tol: float = 1e-4,
    max_iter: int = 100_000,
    strict: bool = False,
) -> SMOResult:
    """Solve the one-class dual for a precomputed Gram matrix ``q``.

    Parameters
    ----------
    q:
        (n, n) kernel Gram matrix of the training set.
    nu:
        The paper's delta: upper bound on the outlier fraction, in (0, 1].
    tol:
        KKT violation threshold for convergence.
    max_iter:
        Iteration budget; on exhaustion the current iterate is returned
        (or :class:`ConvergenceError` is raised when ``strict``).
    linear:
        Optional linear term p: the objective becomes
        ``1/2 a^T Q a + p^T a``.  Zero for the Schoelkopf one-class
        machine; SVDD (the hypersphere formulation) uses
        ``Q' = 2K, p = -diag(K)``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        raise ConfigurationError(
            f"q must be a non-empty square matrix, got shape {q.shape}"
        )
    check_in_range("nu", nu, 0.0, 1.0, inclusive=(False, True))
    n = q.shape[0]
    c = 1.0 / (nu * n)

    if linear is not None:
        linear = np.asarray(linear, dtype=float)
        if linear.shape != (n,):
            raise ConfigurationError(
                f"linear term has shape {linear.shape}, expected ({n},)"
            )
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
        # Maximal violating pair on the gradient.
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
        raise ConvergenceError(
            f"one-class SMO did not converge in {max_iter} iterations "
            f"(violation still above tol={tol})"
        )

    rho = _recover_rho(alpha, gradient, c)
    return SMOResult(alpha=alpha, rho=rho, n_iter=n_iter,
                     converged=converged)


def _recover_rho(alpha: np.ndarray, gradient: np.ndarray, c: float) -> float:
    """KKT offset: G_i = rho on free support vectors, else a midpoint."""
    free = (alpha > _BOUND_EPS) & (alpha < c - _BOUND_EPS)
    if free.any():
        return float(gradient[free].mean())
    # All alphas at a bound.  KKT: G_i <= rho where alpha_i = C and
    # G_i >= rho where alpha_i = 0, so rho lies in the gap between them.
    at_upper = gradient[alpha >= c - _BOUND_EPS]
    at_zero = gradient[alpha <= _BOUND_EPS]
    lo = float(at_upper.max()) if at_upper.size else None
    hi = float(at_zero.min()) if at_zero.size else None
    if lo is None and hi is None:
        return 0.0
    if lo is None:
        return hi  # type: ignore[return-value]
    if hi is None:
        return lo
    return (lo + hi) / 2.0
