"""The paper's learning rule (Section 5.3) as one object.

The training set collects "the highest scored TSs in the relevant VSs":
``training_policy="top<m>"`` takes the m highest heuristic-scored TSs of
each relevant bag (default ``"top1"``, the paper's literal reading),
``"all"`` takes every TS.  A one-class learner is fitted on them with
outlier fraction

    delta = 1 - (h / H + z)                      (paper Eq. 9)

where ``h`` is the number of relevant VSs, ``H`` the number of TSs in
the training set and ``z`` a small slack (0.05 in the paper), clipped to
``nu_bounds``.  Every TS is then scored by the learner's decision value,
and each VS by the maximum over its TSs (the Eq. 3 bag semantics).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.svm.kernels import Kernel
from repro.svm.one_class import OneClassSVM
from repro.svm.svdd import SVDD
from repro.utils import check_in_range, row_sq_norms

__all__ = ["OneClassRule", "parse_policy"]


def parse_policy(policy: str) -> int | None:
    """'all' -> None (no cap); 'top<m>' -> m."""
    if policy == "all":
        return None
    if policy.startswith("top"):
        try:
            m = int(policy[3:])
        except ValueError:
            m = 0
        if m >= 1:
            return m
    raise ConfigurationError(
        f"training_policy must be 'all' or 'top<m>' (m >= 1), got "
        f"{policy!r}"
    )


class OneClassRule:
    """Training policy, Eq. 9 nu, and the fitted one-class learner.

    ``learner`` is ``"ocsvm"`` (Schoelkopf's hyperplane machine, the
    paper's cited learner) or ``"svdd"`` (Tax & Duin's hypersphere, the
    "ball" of the paper's Figure 5); ``kernel`` / ``gamma`` are passed to
    it.  With ``warm_start`` each OCSVM solve is seeded with the previous
    round's alphas, matched by instance id: same optimum within solver
    tolerance, fewer iterations per round.
    """

    def __init__(self, *, z: float = 0.05, kernel: str | Kernel = "rbf",
                 gamma: float | str = "auto", training_policy: str = "top1",
                 nu_bounds: tuple[float, float] = (0.05, 0.95),
                 learner: str = "ocsvm", warm_start: bool = False) -> None:
        check_in_range("z", z, 0.0, 0.5)
        self.top_m = parse_policy(training_policy)
        lo, hi = nu_bounds
        check_in_range("nu lower bound", lo, 0.0, 1.0,
                       inclusive=(False, True))
        check_in_range("nu upper bound", hi, lo, 1.0)
        if learner not in ("ocsvm", "svdd"):
            raise ConfigurationError(
                f"learner must be 'ocsvm' or 'svdd', got {learner!r}")
        self.z = float(z)
        self.kernel = kernel
        self.gamma = gamma
        self.nu_bounds = (float(lo), float(hi))
        self.learner = learner
        self.warm_start = bool(warm_start)
        self._previous_alpha: dict[int, float] = {}
        self.reset()

    def reset(self) -> None:
        """Forget the fitted model (no training instances this round)."""
        self.model: OneClassSVM | SVDD | None = None
        self.support_ids: list[int] = []
        self.support_x: np.ndarray | None = None
        self.support_sq: np.ndarray | None = None

    def select(self, ranked: Sequence[int]) -> Sequence[int]:
        """A relevant bag's training instances, given its instance ids
        in descending heuristic order."""
        return ranked if self.top_m is None else ranked[:self.top_m]

    def nu(self, n_bags: int, n_training: int) -> float:
        """Eq. 9 over ``n_bags`` relevant bags and ``n_training`` TSs."""
        nu = 1.0 - (n_bags / n_training + self.z)
        return float(np.clip(nu, *self.nu_bounds))

    def fit(self, x: np.ndarray, training_ids: list[int],
            n_bags: int) -> float:
        """Fit the learner on the rows ``x`` of ``training_ids``; returns
        the nu it used."""
        nu = self.nu(n_bags, len(training_ids))
        if self.learner == "svdd":
            model = SVDD(nu=nu, kernel=self.kernel, gamma=self.gamma).fit(x)
        else:
            alpha0 = None
            if self.warm_start and self._previous_alpha:
                alpha0 = np.array([self._previous_alpha.get(i, 0.0)
                                   for i in training_ids])
            model = OneClassSVM(nu=nu, kernel=self.kernel,
                                gamma=self.gamma).fit(x, alpha0=alpha0)
            if self.warm_start:
                self._previous_alpha = dict(zip(training_ids, model.alpha_))
        self.model = model
        self.support_ids = [training_ids[s] for s in model.support_]
        self.support_x = np.ascontiguousarray(model.support_vectors_)
        self.support_sq = row_sq_norms(self.support_x)
        return nu

    def decisions(self, cross: np.ndarray,
                  self_sim: Callable[[], np.ndarray]) -> np.ndarray:
        """Decision values of the rows behind the kernel block ``cross``
        (rows x support vectors).  ``self_sim`` returns the rows' K(x, x),
        which only the SVDD ball needs."""
        assert self.model is not None, "scored before any relevant feedback"
        if self.learner == "svdd":
            values = self.model.decision_function(cross=cross,
                                                  self_sim=self_sim())
        else:
            values = self.model.decision_function(cross=cross)
        return values.astype(float)
