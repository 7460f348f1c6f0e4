"""Retrieval metrics.

The paper (Section 6.2) argues that with no prior knowledge of the total
number of correct results, precision/recall are not applicable and uses
"accuracy": the percentage of relevant VSs within the top n returned.
That is top-n precision; we implement it under the paper's name, plus
the final-minus-initial gain the paper reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "accuracy_at_k",
    "overall_gain",
]


def accuracy_at_k(returned: Sequence[int], relevant: Iterable[int],
                  k: int | None = None) -> float:
    """Paper's accuracy: fraction of the top-k returned that is relevant."""
    relevant = set(relevant)
    items = list(returned)
    if k is not None:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        items = items[:k]
    if not items:
        return 0.0
    return sum(1 for b in items if b in relevant) / len(items)


def overall_gain(accuracies: Sequence[float]) -> float:
    """Final-minus-initial accuracy (the paper's 'overall accuracy gain')."""
    if len(accuracies) < 2:
        return 0.0
    return float(accuracies[-1] - accuracies[0])
