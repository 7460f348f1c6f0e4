"""Support Vector Data Description (Tax & Duin): the literal "ball".

Paper Section 5.2 describes the one-class model as a ball: "if the
origin of the ball is o and the radius is r, an instance x_i is inside
the ball iff ||x_i − o|| <= r" — which is exactly the SVDD formulation
(a minimal enclosing hypersphere in feature space), while the learner
the paper actually cites [18] is Schoelkopf's hyperplane machine.  Both
are implemented; with an RBF kernel the two are equivalent up to an
affine transform of the decision value (K(x,x) constant), which the test
suite verifies, and with non-normalized kernels (linear, polynomial)
they genuinely differ.

Dual problem::

    min_a  sum_ij a_i a_j K_ij - sum_i a_i K_ii
    s.t.   sum_i a_i = 1,  0 <= a_i <= 1/(nu*n)

solved by the generalized SMO solver with ``Q' = 2K, p = -diag(K)``.
The decision value is ``R^2 - ||phi(x) - a||^2`` (positive inside).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.obs import get_telemetry
from repro.svm.kernels import Kernel, resolve_kernel
from repro.svm.smo import _BOUND_EPS, solve_one_class_smo
from repro.utils import check_2d, check_in_range

__all__ = ["SVDD"]


class SVDD:
    """nu-parameterised Support Vector Data Description.

    Interface-compatible with :class:`~repro.svm.one_class.OneClassSVM`
    (``fit`` / ``decision_function`` / ``predict``), so it drops into the
    MIL engine via its ``kernel``-agnostic scoring path.
    """

    def __init__(
        self,
        *,
        nu: float = 0.5,
        kernel: str | Kernel = "rbf",
        gamma: float | str = "auto",
        degree: int = 3,
        coef0: float = 1.0,
        tol: float = 1e-5,
        max_iter: int = 100_000,
    ) -> None:
        check_in_range("nu", nu, 0.0, 1.0, inclusive=(False, True))
        self.nu = float(nu)
        self._kernel_spec = kernel
        self._gamma = gamma
        self._degree = degree
        self._coef0 = coef0
        self.tol = float(tol)
        self.max_iter = int(max_iter)

        self.kernel_: Kernel | None = None
        self.alpha_: np.ndarray | None = None
        self.support_: np.ndarray | None = None
        self.support_vectors_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.radius2_: float | None = None
        self.center_norm2_: float | None = None
        self.n_iter_: int | None = None

    @property
    def is_fitted(self) -> bool:
        return self.support_vectors_ is not None

    def fit(self, x: np.ndarray) -> "SVDD":
        """Find the minimal soft hypersphere enclosing ``x`` rows."""
        x = check_2d("x", x)
        kernel = resolve_kernel(self._kernel_spec, gamma=self._gamma,
                                degree=self._degree, coef0=self._coef0)
        kernel = kernel.prepare(x)
        gram = kernel.compute(x, x)
        diag = np.diag(gram).copy()
        obs = get_telemetry()
        with obs.span("svm.fit", learner="svdd", n=x.shape[0]):
            result = solve_one_class_smo(
                2.0 * gram, self.nu, linear=-diag,
                tol=self.tol, max_iter=self.max_iter,
            )
        obs.histogram("svm.solver.iterations").observe(
            result.n_iter, learner="svdd")
        alpha = result.alpha
        # ||a||^2 = alpha^T K alpha; R^2 from the KKT offset:
        # at a free SV, G_k = 2(K alpha)_k - K_kk = ||a||^2 - R^2.
        center_norm2 = float(alpha @ gram @ alpha)
        radius2 = center_norm2 - result.rho
        if radius2 <= 0:
            # Degenerate (e.g. a single point): fall back to the largest
            # support-vector distance.
            dists = diag - 2.0 * (gram @ alpha) + center_norm2
            radius2 = float(max(dists[alpha > _BOUND_EPS].max(), 0.0))
        mask = alpha > _BOUND_EPS
        self.kernel_ = kernel
        self.alpha_ = alpha
        self.support_ = np.nonzero(mask)[0]
        self.support_vectors_ = x[mask]
        self.dual_coef_ = alpha[mask]
        self.center_norm2_ = center_norm2
        self.radius2_ = float(radius2)
        self.n_iter_ = result.n_iter
        return self

    def _distance2(self, x: np.ndarray | None = None, *,
                   cross: np.ndarray | None = None,
                   self_sim: np.ndarray | None = None) -> np.ndarray:
        """Squared feature-space distance to the sphere centre.

        ``cross`` is an optional precomputed ``K(x, support_vectors_)``
        block and ``self_sim`` the per-row self-similarities ``K(x, x)``
        (``Kernel.diag``); the engine's Gram cache supplies both so the
        database scoring pass never re-evaluates the kernel.
        """
        assert (self.kernel_ is not None and self.dual_coef_ is not None
                and self.support_vectors_ is not None
                and self.center_norm2_ is not None)
        if cross is None:
            if x is None:
                raise ConfigurationError(
                    "SVDD scoring needs x or a precomputed cross block"
                )
            x = check_2d("x", x)
            if x.shape[1] != self.support_vectors_.shape[1]:
                raise ConfigurationError(
                    f"x has {x.shape[1]} features, model was fitted with "
                    f"{self.support_vectors_.shape[1]}"
                )
            cross = self.kernel_.compute(x, self.support_vectors_)
        else:
            cross = np.asarray(cross, dtype=float)
            if cross.ndim != 2 or cross.shape[1] != len(self.dual_coef_):
                raise ConfigurationError(
                    f"cross block has shape {cross.shape}, expected "
                    f"(m, {len(self.dual_coef_)})"
                )
        if self_sim is None:
            if x is None:
                raise ConfigurationError(
                    "SVDD scoring needs x or precomputed self-similarities"
                )
            self_sim = self.kernel_.diag(x)
        projection = cross @ self.dual_coef_
        return self_sim - 2.0 * projection + self.center_norm2_

    def decision_function(self, x: np.ndarray | None = None, *,
                          cross: np.ndarray | None = None,
                          self_sim: np.ndarray | None = None) -> np.ndarray:
        """R^2 - ||phi(x) - center||^2; positive inside the ball."""
        if not self.is_fitted or self.radius2_ is None:
            raise NotFittedError("SVDD: call fit() first")
        return self.radius2_ - self._distance2(x, cross=cross,
                                               self_sim=self_sim)

    def predict(self, x: np.ndarray) -> np.ndarray:
        scores = self.decision_function(x)
        return np.where(scores >= 0, 1, -1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.is_fitted else "unfitted"
        return f"SVDD(nu={self.nu}, kernel={self._kernel_spec!r}, {state})"
