"""Weighted relevance-feedback baseline (paper Section 6.2).

"The proposed framework is compared with the traditional weighted
relevance feedback method": the relevance score is a weighted square sum
of the raw features; after each round the weight of
feature ``f`` becomes the inverse of its standard deviation over the
feature vectors of all relevant Trajectory Sequences, and the weights are
re-normalized.  The paper tried three normalizations — none, linear to
[0, 1] and percentage-of-total — and found percentage best; all three are
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bags import MILDataset
from repro.core.engine import MILRetrievalEngine
from repro.core.heuristics import instance_point_scores
from repro.core.rule import read_only
from repro.errors import ConfigurationError

__all__ = ["WeightedRFEngine", "WeightedRFFit", "WeightedRFRule",
           "normalize_weights"]

_NORMALIZATIONS = ("percentage", "linear", "none")
_STD_FLOOR = 1e-6


def normalize_weights(weights: np.ndarray, method: str) -> np.ndarray:
    """Re-normalize raw inverse-std weights.

    ``percentage`` divides by the total (the paper's winner), ``linear``
    maps to [0, 1] (the paper notes a zero weight then permanently kills
    a feature), ``none`` leaves them raw.
    """
    weights = np.asarray(weights, dtype=float)
    if method == "none":
        return weights.copy()
    if method == "linear":
        span = weights.max() - weights.min()
        if span <= 0:
            return np.ones_like(weights)
        return (weights - weights.min()) / span
    if method == "percentage":
        total = weights.sum()
        if total <= 0:
            return np.full_like(weights, 1.0 / len(weights))
        return weights / total
    raise ConfigurationError(
        f"unknown normalization {method!r}; expected one of "
        f"{_NORMALIZATIONS}"
    )


@dataclass(frozen=True, eq=False)
class WeightedRFFit:
    """The fitted re-weighting: one weight per feature."""

    weights: np.ndarray
    nu = None

    def decisions(self, shard, rows: np.ndarray | None = None
                  ) -> np.ndarray:
        """Each TS's best weighted square sum over its sampling points."""
        matrices = shard.ts_matrices(rows, standardized=False)
        return instance_point_scores(matrices, self.weights).max(axis=1)


@dataclass(frozen=True, kw_only=True)
class WeightedRFRule:
    """Query re-weighting RF: w_f = 1/std_f over relevant feature rows.

    Until the first fit the engine keeps the heuristic ranking: "the
    initial weights of the three features are all 1s".
    """

    standardized = False
    negatives = False

    normalization: str = "percentage"

    def __post_init__(self) -> None:
        if self.normalization not in _NORMALIZATIONS:
            raise ConfigurationError(
                f"unknown normalization {self.normalization!r}; expected "
                f"one of {_NORMALIZATIONS}"
            )

    def select(self, ranked: Sequence[int]) -> list[int]:
        """Every TS of the bag, in layout order."""
        return sorted(ranked)

    def fit(self, positive: list[np.ndarray], negative: list[np.ndarray],
            ids: list[int]) -> WeightedRFFit:
        # Every sampling point of the relevant TSs.
        points = np.concatenate(positive).reshape(-1, positive[0].shape[2])
        raw = 1.0 / np.maximum(points.std(axis=0), _STD_FLOOR)
        return WeightedRFFit(read_only(
            normalize_weights(raw, self.normalization)))


class WeightedRFEngine(MILRetrievalEngine):
    """The MIL engine over :class:`WeightedRFRule`."""

    def __init__(self, dataset: MILDataset, *,
                 normalization: str = "percentage") -> None:
        super().__init__(dataset, rule=WeightedRFRule,
                         normalization=normalization)
