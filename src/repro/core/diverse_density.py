"""Diverse Density MIL baseline (Maron & Lozano-Perez, paper ref [6]).

The paper's literature review positions Diverse Density as the classic
MIL approach; we implement it as an extension baseline so the benchmark
can compare the One-class-SVM engine against it.  A hypothesis is a
target concept point ``t`` and per-dimension scales ``s``; an instance's
probability of being the concept is

    p(x) = exp(-sum_d s_d^2 (x_d - t_d)^2)

and bag probabilities combine instances with the noisy-OR model.  The
negative log likelihood is minimized by gradient descent (L-BFGS-B) from
multiple starting points taken at instances of positive bags, as in the
original two-step scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from repro.core.bags import MILDataset
from repro.core.engine import MILRetrievalEngine
from repro.core.rule import read_only
from repro.errors import ConfigurationError
from repro.utils import check_positive

__all__ = ["DiverseDensityEngine", "DiverseDensityFit", "DiverseDensityRule",
           "dd_instance_prob", "dd_negative_log_likelihood"]

_PROB_EPS = 1e-10


def dd_instance_prob(x: np.ndarray, target: np.ndarray,
                     scales: np.ndarray) -> np.ndarray:
    """p(instance is the concept) for rows of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    diff = x - np.asarray(target, dtype=float)
    return np.exp(-np.sum((np.asarray(scales) ** 2) * diff * diff, axis=1))


def dd_negative_log_likelihood(
    params: np.ndarray,
    positive_bags: list[np.ndarray],
    negative_bags: list[np.ndarray],
) -> float:
    """Noisy-OR DD objective over bag instance matrices."""
    d = len(params) // 2
    target, scales = params[:d], params[d:]
    nll = 0.0
    for bag in positive_bags:
        p = dd_instance_prob(bag, target, scales)
        prob = 1.0 - np.prod(1.0 - p)
        nll -= np.log(max(prob, _PROB_EPS))
    for bag in negative_bags:
        p = dd_instance_prob(bag, target, scales)
        prob = np.prod(1.0 - p)
        nll -= np.log(max(prob, _PROB_EPS))
    return float(nll)


@dataclass(frozen=True, eq=False)
class DiverseDensityFit:
    """The best hypothesis found, (``target``, ``scales``), and its
    negative log likelihood ``nll``."""

    target: np.ndarray
    scales: np.ndarray
    nll: float
    nu = None

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        x = shard.matrix if rows is None else shard.matrix[rows]
        return dd_instance_prob(x, self.target, self.scales).astype(float)


@dataclass(frozen=True, kw_only=True)
class DiverseDensityRule:
    """Rank by Diverse Density instance probability.

    Relevant bags from feedback are the positive bags, irrelevant ones
    the negative bags, all in the corpus-standardized feature space.
    """

    standardized = True
    negatives = True

    max_starts: int = 8
    max_iter: int = 200

    def __post_init__(self) -> None:
        check_positive("max_starts", self.max_starts)
        check_positive("max_iter", self.max_iter)
        object.__setattr__(self, "max_starts", int(self.max_starts))
        object.__setattr__(self, "max_iter", int(self.max_iter))

    def select(self, ranked: Sequence[int]) -> list[int]:
        """Every TS of the bag, in layout order."""
        return sorted(ranked)

    def _starting_points(self, positive_bags: list[np.ndarray]) -> np.ndarray:
        instances = np.vstack(positive_bags)
        if len(instances) <= self.max_starts:
            return instances
        # Deterministic spread: every k-th positive instance.
        idx = np.linspace(0, len(instances) - 1, self.max_starts)
        return instances[idx.round().astype(int)]

    def _optimize(self, start: np.ndarray, positive: list[np.ndarray],
                  negative: list[np.ndarray]) -> tuple[float, np.ndarray]:
        """(NLL, params) of the descent from one starting point."""
        params0 = np.concatenate([start, np.full(len(start), 0.7)])
        result = minimize(
            dd_negative_log_likelihood,
            params0,
            args=(positive, negative),
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        return float(result.fun), result.x

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> DiverseDensityFit:
        positive = [b.reshape(len(b), -1) for b in positive if len(b)]
        negative = [b.reshape(len(b), -1) for b in negative if len(b)]
        d = positive[0].shape[1]
        best_nll, best_params = np.inf, None
        for start in self._starting_points(positive):
            nll, params = self._optimize(start, positive, negative)
            if nll < best_nll:
                best_nll, best_params = nll, params
        if best_params is None:  # pragma: no cover - optimizer always returns
            raise ConfigurationError("diverse density failed to optimize")
        return DiverseDensityFit(target=read_only(best_params[:d]),
                                 scales=read_only(best_params[d:]),
                                 nll=best_nll)


class DiverseDensityEngine(MILRetrievalEngine):
    """The MIL engine over :class:`DiverseDensityRule`."""

    def __init__(self, dataset: MILDataset, *, max_starts: int = 8,
                 max_iter: int = 200) -> None:
        super().__init__(dataset, rule=DiverseDensityRule,
                         max_starts=max_starts, max_iter=max_iter)
