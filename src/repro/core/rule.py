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

The retrieval engine (:class:`~repro.core.sharded.ShardedRetrievalEngine`)
talks to its learner only through a :class:`Rule`.  The baselines the
paper compares against are rules too:
:class:`~repro.core.weighted_rf.WeightedRFRule`,
:class:`~repro.core.diverse_density.DiverseDensityRule` and
:class:`~repro.core.emdd.EMDDRule`.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.svm.gram_cache import GramCache
from repro.svm.kernels import Kernel, RBFKernel
from repro.svm.one_class import OneClassSVM
from repro.svm.svdd import SVDD
from repro.utils import check_in_range, row_sq_norms

__all__ = ["Rule", "OneClassRule", "parse_policy"]


class Rule(Protocol):
    """What the engine needs from a learning rule.

    The engine hands a rule the TS matrices of the labelled bags, raw or
    standardized over the whole corpus as :attr:`standardized` says, and
    asks it for decision values (higher = more relevant) of one shard's
    instances.  It turns those into bag scores and the ranking itself.
    """

    #: Read ``shard.matrix`` (corpus-standardized), not ``matrix_raw``.
    standardized: bool
    #: Also fit on the irrelevant bags.
    negatives: bool

    def select(self, ranked: Sequence[int]) -> Sequence[int]:
        """The instances of a labelled bag to train on, given its
        instance ids in descending heuristic order."""

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> float | None:
        """Fit on one (instances, window, features) block per relevant
        bag, and per irrelevant bag if :attr:`negatives`; ``ids`` are
        the relevant rows' instance ids (at least one).  Returns the
        Eq. 9 nu, or ``None`` for a rule without one."""

    def reset(self) -> None:
        """Forget the fitted model."""

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        """Decision values of the shard's instances, or of its ``rows``
        only, in layout order."""


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
    it.

    A whole shard is scored through the shard's
    :class:`~repro.svm.gram_cache.GramCache`, so warm rounds reuse kernel
    columns; a candidate block is one small kernel block.
    """

    standardized = True
    negatives = False

    def __init__(self, *, z: float = 0.05, kernel: str | Kernel = "rbf",
                 gamma: float | str = "auto", training_policy: str = "top1",
                 nu_bounds: tuple[float, float] = (0.05, 0.95),
                 learner: str = "ocsvm") -> None:
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

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> float:
        """Fit the learner on the relevant bags' selected TSs; returns
        the nu it used."""
        x = np.concatenate(positive).reshape(len(ids), -1)
        nu = self.nu(len(positive), len(ids))
        if self.learner == "svdd":
            model = SVDD(nu=nu, kernel=self.kernel, gamma=self.gamma).fit(x)
        else:
            model = OneClassSVM(nu=nu, kernel=self.kernel,
                                gamma=self.gamma).fit(x)
        self.model = model
        self.support_ids = [ids[s] for s in model.support_]
        self.support_x = np.ascontiguousarray(model.support_vectors_)
        self.support_sq = row_sq_norms(self.support_x)
        return nu

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        """Decision values of the shard's instances: all of them through
        its Gram cache, or ``rows`` as one kernel block."""
        assert self.model is not None, "scored before any relevant feedback"
        kernel = self.model.kernel_
        if rows is None:
            cache = shard.gram_cache
            if cache is None:
                cache = shard.gram_cache = GramCache(shard.matrix)
            cache.ensure_vectors(kernel, self.support_ids, self.support_x)
            cross = cache.cross(self.support_ids)
        else:
            sub = shard.matrix[rows]
            if isinstance(kernel, RBFKernel):
                cross = kernel.compute_blocked(sub, self.support_x,
                                               b_sq=self.support_sq)
            else:
                cross = kernel.compute_blocked(sub, self.support_x)
        if self.learner == "svdd":
            # Only the ball needs the rows' self-similarities K(x, x).
            self_sim = cache.diag(kernel) if rows is None else kernel.diag(sub)
            values = self.model.decision_function(cross=cross,
                                                  self_sim=self_sim)
        else:
            values = self.model.decision_function(cross=cross)
        return values.astype(float)
