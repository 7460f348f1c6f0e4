"""Retrieval metrics.

The paper (Section 6.2) argues that with no prior knowledge of the total
number of correct results, precision/recall are not applicable and uses
"accuracy": the percentage of relevant VSs within the top n returned.
That is top-n precision; we implement it under the paper's name plus a
few standard companions used by the ablation benches.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "accuracy_at_k",
    "accuracy_curve",
    "average_precision",
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


def accuracy_curve(rounds_returned: Sequence[Sequence[int]],
                   relevant: Iterable[int],
                   k: int | None = None) -> list[float]:
    """Accuracy per feedback round (the paper's Figures 8/9 series)."""
    relevant = set(relevant)
    return [accuracy_at_k(returned, relevant, k)
            for returned in rounds_returned]


def average_precision(returned: Sequence[int],
                      relevant: Iterable[int]) -> float:
    """AP over a ranking: mean of precision@rank at each relevant hit."""
    relevant = set(relevant)
    if not relevant:
        return 0.0
    hits, total = 0, 0.0
    for rank, item in enumerate(returned, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def overall_gain(accuracies: Sequence[float]) -> float:
    """Final-minus-initial accuracy (the paper's 'overall accuracy gain')."""
    if len(accuracies) < 2:
        return 0.0
    return float(accuracies[-1] - accuracies[0])
