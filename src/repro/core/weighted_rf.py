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

import numpy as np

from repro.core.bags import MILDataset
from repro.core.base import RetrievalEngine
from repro.core.heuristics import instance_point_scores
from repro.errors import ConfigurationError

__all__ = ["WeightedRFEngine", "normalize_weights"]

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


class WeightedRFEngine(RetrievalEngine):
    """Query re-weighting RF: w_f = 1/std_f over relevant feature rows."""

    def __init__(self, dataset: MILDataset, *,
                 normalization: str = "percentage") -> None:
        super().__init__(dataset)
        if normalization not in _NORMALIZATIONS:
            raise ConfigurationError(
                f"unknown normalization {normalization!r}; expected one of "
                f"{_NORMALIZATIONS}"
            )
        self.normalization = normalization
        n_features = len(dataset.feature_names)
        # "The initial weights of the three features are all 1s."
        self.weights_ = np.ones(n_features)

    def _retrain(self) -> None:
        rows = [
            inst.matrix
            for bag_id in self.relevant_bag_ids
            for inst in self.dataset.bag_by_id(bag_id).instances
        ]
        if not rows:
            return
        stacked = np.vstack(rows)  # every sampling point of relevant TSs
        std = stacked.std(axis=0)
        raw = 1.0 / np.maximum(std, _STD_FLOOR)
        self.weights_ = normalize_weights(raw, self.normalization)

    def _instance_scores(self) -> dict[int, float]:
        scores: dict[int, float] = {}
        for inst in self.dataset.all_instances():
            points = instance_point_scores(inst.matrix, self.weights_)
            scores[inst.instance_id] = float(points.max())
        return scores
