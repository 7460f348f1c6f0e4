"""Initial, feedback-free ranking (paper Section 5.3).

Before any relevance feedback exists, a Video Sequence's relevance score
is the highest score of its Trajectory Sequences; a TS's score is the
highest score of its sampling points; a sampling point's score is the
square sum of its feature vector ("it is assumed that a big velocity
change, a sudden change of driving direction, and a short distance
between two vehicles are indications of possible accidents").

The paper scores *raw* features (only the baseline's weights are ever
normalized), which is part of why its Initial round sits at a modest 40%;
we follow that.
"""

from __future__ import annotations

import numpy as np

from repro.core.bags import MILDataset

__all__ = ["heuristic_scores", "instance_point_scores"]


def instance_point_scores(matrix: np.ndarray,
                          weights: np.ndarray | None = None) -> np.ndarray:
    """Per-sampling-point scores: (weighted) square sum of the features
    (the last axis of ``matrix``)."""
    squared = np.asarray(matrix, dtype=float) ** 2
    if weights is not None:
        squared = squared * np.asarray(weights, dtype=float)
    return squared.sum(axis=-1)


def heuristic_scores(
    dataset: MILDataset,
) -> tuple[np.ndarray, dict[int, float]]:
    """Initial scores: S_v = max_T S_T, S_T = max_i S_alpha_i.

    Returns ``(bag_scores, instance_scores)`` with ``bag_scores`` aligned
    to ``dataset.bags`` (empty bags score ``-inf``).
    """
    instance_scores: dict[int, float] = {}
    bag_scores = np.full(len(dataset.bags), -np.inf)
    for b, bag in enumerate(dataset.bags):
        for inst in bag.instances:
            score = float(instance_point_scores(inst.matrix).max())
            instance_scores[inst.instance_id] = score
            bag_scores[b] = max(bag_scores[b], score)
    return bag_scores, instance_scores
