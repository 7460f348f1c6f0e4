"""One-class SVM estimator (Schoelkopf nu-OCSVM, paper Section 5.2).

The decision function is

    f(x) = sign( sum_i alpha_i K(x_i, x) - rho )

which is positive "in those regions of input space where the data
predominantly lies and negative elsewhere" (paper Section 5.2); in the
MIL framework positive means a Trajectory Sequence looks like the
user-confirmed relevant ones, negative means outlier/irrelevant.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.obs import get_telemetry
from repro.svm.kernels import Kernel, resolve_kernel
from repro.svm.smo import solve_one_class_smo
from repro.utils import check_2d, check_in_range

__all__ = ["OneClassSVM"]


class OneClassSVM:
    """nu-parameterised one-class SVM with a from-scratch SMO solver.

    Parameters
    ----------
    nu:
        Upper bound on the fraction of training outliers / lower bound on
        the fraction of support vectors, in (0, 1].  This is the paper's
        delta from Eq. (7) and (9).
    kernel:
        ``"rbf"`` (default), ``"linear"``, ``"poly"`` or a
        :class:`~repro.svm.kernels.Kernel` instance.
    gamma:
        RBF/poly width: positive float, ``"scale"`` or ``"auto"``.
    tol / max_iter:
        SMO stopping parameters.

    Attributes (after fit)
    ----------------------
    support_:
        Indices of support vectors in the training set.
    dual_coef_:
        Their alpha values.
    rho_:
        The decision offset.
    """

    def __init__(
        self,
        *,
        nu: float = 0.5,
        kernel: str | Kernel = "rbf",
        gamma: float | str = "scale",
        degree: int = 3,
        coef0: float = 1.0,
        tol: float = 1e-4,
        max_iter: int = 100_000,
    ) -> None:
        check_in_range("nu", nu, 0.0, 1.0, inclusive=(False, True))
        if max_iter <= 0:
            raise ConfigurationError("max_iter must be positive")
        self.nu = float(nu)
        self._kernel_spec = kernel
        self._gamma = gamma
        self._degree = degree
        self._coef0 = coef0
        self.tol = float(tol)
        self.max_iter = int(max_iter)

        self.kernel_: Kernel | None = None
        self.alpha_: np.ndarray | None = None
        self.support_vectors_: np.ndarray | None = None
        self.support_: np.ndarray | None = None
        self.dual_coef_: np.ndarray | None = None
        self.rho_: float | None = None
        self.n_iter_: int | None = None
        self.converged_: bool | None = None

    @property
    def is_fitted(self) -> bool:
        return self.support_vectors_ is not None

    def fit(self, x: np.ndarray) -> "OneClassSVM":
        """Estimate the support of the distribution of ``x`` (rows)."""
        x = check_2d("x", x)
        kernel = resolve_kernel(self._kernel_spec, gamma=self._gamma,
                                degree=self._degree, coef0=self._coef0)
        kernel = kernel.prepare(x)
        gram = kernel.compute(x, x)
        obs = get_telemetry()
        with obs.span("svm.fit", learner="ocsvm", n=x.shape[0]):
            result = solve_one_class_smo(gram, self.nu, tol=self.tol,
                                         max_iter=self.max_iter)
        obs.histogram("svm.solver.iterations").observe(
            result.n_iter, learner="ocsvm")
        mask = result.support_mask
        self.kernel_ = kernel
        self.alpha_ = result.alpha
        self.support_ = np.nonzero(mask)[0]
        self.support_vectors_ = x[mask]
        self.dual_coef_ = result.alpha[mask]
        self.rho_ = result.rho
        self.n_iter_ = result.n_iter
        self.converged_ = result.converged
        return self

    def decision_function(self, x: np.ndarray | None = None, *,
                          cross: np.ndarray | None = None) -> np.ndarray:
        """Signed distance-like score; positive inside the support.

        ``cross`` is an optional precomputed ``K(x, support_vectors_)``
        block (m, n_sv); when given, ``x`` is not needed — the retrieval
        engine's Gram cache scores the whole database this way without
        re-evaluating the kernel.
        """
        if (self.support_vectors_ is None or self.dual_coef_ is None
                or self.kernel_ is None or self.rho_ is None):
            raise NotFittedError("OneClassSVM: call fit() first")
        if cross is None:
            if x is None:
                raise ConfigurationError(
                    "decision_function needs x or a precomputed cross block"
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
        return cross @ self.dual_coef_ - self.rho_

    def predict(self, x: np.ndarray) -> np.ndarray:
        """+1 inside the estimated support, -1 outside."""
        scores = self.decision_function(x)
        return np.where(scores >= 0, 1, -1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.is_fitted else "unfitted"
        return (f"OneClassSVM(nu={self.nu}, kernel={self._kernel_spec!r}, "
                f"{state})")
