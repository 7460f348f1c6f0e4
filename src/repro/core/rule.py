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
talks to its learner only through a :class:`Rule`, which holds only
its parameters, and the :class:`Fit` value that ``Rule.fit`` returns.
The baselines the paper compares against are rules too:
:class:`~repro.core.weighted_rf.WeightedRFRule`,
:class:`~repro.core.diverse_density.DiverseDensityRule` and
:class:`~repro.core.emdd.EMDDRule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.svm.gram_cache import GramCache
from repro.svm.kernels import Kernel, RBFKernel
from repro.svm.one_class import OneClassSVM
from repro.svm.svdd import SVDD
from repro.utils import check_in_range, row_sq_norms

__all__ = ["Rule", "Fit", "OneClassRule", "OneClassFit", "parse_policy"]


class Fit(Protocol):
    """A fitted rule: an immutable value the engine holds and scores
    through.  Engines over one corpus epoch may share one."""

    #: The Eq. 9 nu it was fitted with, or ``None`` for a rule without.
    nu: float | None

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        """Decision values (higher = more relevant) of the shard's
        instances, or of its ``rows`` only, in layout order."""


class Rule(Protocol):
    """What the engine needs from a learning rule.

    The engine hands a rule the TS matrices of the labelled bags, raw or
    standardized over the whole corpus as :attr:`standardized` says, and
    gets back a :class:`Fit` that gives decision values of one shard's
    instances.  It turns those into bag scores and the ranking itself.

    A rule holds only its parameters, and compares and hashes by its
    class and them: the corpus memoizes fits under a key that holds the
    rule (:meth:`~repro.core.sharded.ShardedCorpus.memoized_fit`).
    """

    #: Read ``shard.matrix`` (corpus-standardized), not ``matrix_raw``.
    standardized: bool
    #: Also fit on the irrelevant bags.
    negatives: bool

    def select(self, ranked: Sequence[int]) -> Sequence[int]:
        """The instances of a labelled bag to train on, given its
        instance ids in descending heuristic order."""

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> Fit:
        """Fit on one (instances, window, features) block per relevant
        bag, and per irrelevant bag if :attr:`negatives`; ``ids`` are
        the relevant rows' instance ids (at least one)."""


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: engines share a :class:`Fit`'s arrays."""
    array.setflags(write=False)
    return array


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


@dataclass(frozen=True, eq=False)
class OneClassFit:
    """A fitted one-class learner: the model, its support vectors' ids,
    rows and squared norms, and the Eq. 9 ``nu`` it was fitted with.

    A whole shard is scored through the shard's
    :class:`~repro.svm.gram_cache.GramCache`, so warm rounds reuse kernel
    columns; a candidate block is one small kernel block.
    """

    model: OneClassSVM | SVDD
    support_ids: tuple[int, ...]
    support_x: np.ndarray
    support_sq: np.ndarray
    nu: float

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        """Decision values of the shard's instances: all of them through
        its Gram cache, or ``rows`` as one kernel block."""
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
        if isinstance(self.model, SVDD):
            # Only the ball needs the rows' self-similarities K(x, x).
            self_sim = cache.diag(kernel) if rows is None else kernel.diag(sub)
            values = self.model.decision_function(cross=cross,
                                                  self_sim=self_sim)
        else:
            values = self.model.decision_function(cross=cross)
        return values.astype(float)


@dataclass(frozen=True, kw_only=True)
class OneClassRule:
    """Training policy, Eq. 9 nu, and the one-class learner to fit.

    ``learner`` is ``"ocsvm"`` (Schoelkopf's hyperplane machine, the
    paper's cited learner) or ``"svdd"`` (Tax & Duin's hypersphere, the
    "ball" of the paper's Figure 5); ``kernel`` / ``gamma`` are passed to
    it.  A :class:`~repro.svm.kernels.Kernel` instance compares by its
    ``params_key()``.
    """

    standardized = True
    negatives = False

    z: float = 0.05
    kernel: str | Kernel = field(default="rbf", compare=False)
    gamma: float | str = "auto"
    training_policy: str = "top1"
    nu_bounds: tuple[float, float] = (0.05, 0.95)
    learner: str = "ocsvm"
    kernel_key: str | tuple = field(init=False, repr=False)
    top_m: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_in_range("z", self.z, 0.0, 0.5)
        lo, hi = self.nu_bounds
        check_in_range("nu lower bound", lo, 0.0, 1.0,
                       inclusive=(False, True))
        check_in_range("nu upper bound", hi, lo, 1.0)
        if self.learner not in ("ocsvm", "svdd"):
            raise ConfigurationError(
                f"learner must be 'ocsvm' or 'svdd', got {self.learner!r}")
        kernel_key = (self.kernel.params_key()
                      if isinstance(self.kernel, Kernel) else self.kernel)
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "nu_bounds", (float(lo), float(hi)))
        object.__setattr__(self, "kernel_key", kernel_key)
        object.__setattr__(self, "top_m",
                           parse_policy(self.training_policy))

    def select(self, ranked: Sequence[int]) -> Sequence[int]:
        """A relevant bag's training instances, given its instance ids
        in descending heuristic order."""
        return ranked if self.top_m is None else ranked[:self.top_m]

    def nu(self, n_bags: int, n_training: int) -> float:
        """Eq. 9 over ``n_bags`` relevant bags and ``n_training`` TSs."""
        nu = 1.0 - (n_bags / n_training + self.z)
        return float(np.clip(nu, *self.nu_bounds))

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> OneClassFit:
        """Fit the learner on the relevant bags' selected TSs, with the
        Eq. 9 nu over every relevant bag, empty ones included."""
        x = np.concatenate(positive).reshape(len(ids), -1)
        nu = self.nu(len(positive), len(ids))
        if self.learner == "svdd":
            model = SVDD(nu=nu, kernel=self.kernel, gamma=self.gamma).fit(x)
        else:
            model = OneClassSVM(nu=nu, kernel=self.kernel,
                                gamma=self.gamma).fit(x)
        support_x = read_only(np.ascontiguousarray(model.support_vectors_))
        read_only(model.dual_coef_)
        return OneClassFit(
            model=model, support_ids=tuple(ids[s] for s in model.support_),
            support_x=support_x, support_sq=read_only(row_sq_norms(support_x)),
            nu=nu)
