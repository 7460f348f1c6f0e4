"""Shared machinery for interactive retrieval engines.

An engine ranks the bags of one :class:`~repro.core.bags.MILDataset`;
relevance feedback arrives via :meth:`RetrievalEngine.feed` as bag-level
labels and accumulates across rounds ("the training set for the user's
specific query is built up gradually", paper Section 1).  Until the first
relevant label arrives every engine falls back to the heuristic initial
ranking, which is why the paper's accuracy curves all share their
``Initial`` point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.core.bags import MILDataset
from repro.core.heuristics import heuristic_scores
from repro.errors import ConfigurationError

__all__ = ["RetrievalEngine", "InstanceExplanation"]


@dataclass(frozen=True)
class InstanceExplanation:
    """One Trajectory Sequence's standing inside a retrieved bag.

    The user-facing payoff of the MIL mapping: after labelling whole
    Video Sequences, :meth:`RetrievalEngine.explain` ranks the vehicles
    inside a result so a UI can highlight the ones the engine believes
    are involved.
    """

    rank: int
    instance_id: int
    track_id: int
    score: float
    feature_names: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def for_bag(cls, bag, scores: Mapping[int, float],
                feature_names: tuple[str, ...]) -> list["InstanceExplanation"]:
        """One explanation per instance of ``bag``, best ``scores``
        (instance id -> relevance) first."""
        ordered = sorted(bag.instances, key=lambda i: scores[i.instance_id],
                         reverse=True)
        return [
            cls(rank=rank, instance_id=inst.instance_id,
                track_id=inst.track_id, score=float(scores[inst.instance_id]),
                feature_names=feature_names, matrix=inst.matrix)
            for rank, inst in enumerate(ordered, start=1)
        ]

    def peak_feature(self) -> tuple[str, float]:
        """(channel name, signed value) of the largest |feature| entry."""
        flat_index = int(np.argmax(np.abs(self.matrix)))
        _, col = np.unravel_index(flat_index, self.matrix.shape)
        return (self.feature_names[col],
                float(self.matrix.ravel()[flat_index]))


class RetrievalEngine(ABC):
    """Base class: label bookkeeping, heuristic fallback, bag ranking."""

    def __init__(self, dataset: MILDataset) -> None:
        if not dataset.bags:
            raise ConfigurationError("dataset has no bags to rank")
        if dataset.n_instances == 0:
            raise ConfigurationError(
                "dataset has no instances (every bag is empty) — nothing "
                "to learn from or rank"
            )
        self.dataset = dataset
        self.labels: dict[int, bool] = {}
        self._heuristic_bag_scores, self._heuristic_instance_scores = (
            heuristic_scores(dataset)
        )
        # Bag layout for the vectorized instance-max reduction: instances
        # are stored bag-contiguously, so each bag is one reduceat segment.
        self._instance_order = [
            inst.instance_id for bag in dataset.bags for inst in bag.instances
        ]
        self._bag_sizes = np.array([b.n_instances for b in dataset.bags])
        self._bag_starts = np.concatenate(
            ([0], np.cumsum(self._bag_sizes)))[:-1].astype(int)

    # -- feedback ---------------------------------------------------------
    def feed(self, labels: Mapping[int, bool]) -> None:
        """Accumulate bag labels (bag_id -> relevant?) and retrain."""
        known = {b.bag_id for b in self.dataset.bags}
        unknown = set(labels) - known
        if unknown:
            raise ConfigurationError(
                f"labels reference unknown bag ids {sorted(unknown)[:5]}"
            )
        self.labels.update({int(k): bool(v) for k, v in labels.items()})
        self._retrain()

    @property
    def relevant_bag_ids(self) -> list[int]:
        return sorted(b for b, lab in self.labels.items() if lab)

    @property
    def irrelevant_bag_ids(self) -> list[int]:
        return sorted(b for b, lab in self.labels.items() if not lab)

    @property
    def has_relevant_feedback(self) -> bool:
        return any(self.labels.values())

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`_instance_scores` is currently usable.

        Subclasses override when training can fail to produce a model
        even with relevant feedback (e.g. every relevant bag was empty).
        """
        return self.has_relevant_feedback

    # -- ranking ----------------------------------------------------------
    def bag_scores(self) -> np.ndarray:
        """Scores aligned with ``dataset.bags`` (higher = more relevant).

        A bag's score is the max over its instances (the Eq. 3 bag
        semantics), computed segment-wise over the bag-contiguous
        instance layout; empty bags score ``-inf``.
        """
        if not self.is_trained:
            return self._heuristic_bag_scores.copy()
        by_id = self._instance_scores()
        values = np.fromiter((by_id[i] for i in self._instance_order),
                             dtype=float, count=len(self._instance_order))
        scores = np.full(len(self.dataset.bags), -np.inf)
        non_empty = self._bag_sizes > 0
        if non_empty.any():
            # reduceat over non-empty starts: each segment runs to the
            # next non-empty start, and the empty bags in between
            # contribute no values, so segments match bags exactly.
            scores[non_empty] = np.maximum.reduceat(
                values, self._bag_starts[non_empty])
        return scores

    def instance_relevance(self) -> dict[int, float]:
        """Current per-instance relevance scores (instance_id -> score).

        Heuristic scores before any relevant feedback, model scores
        after — the quantity behind the MIL claim that bag-level labels
        let the engine point at the responsible Trajectory Sequences.
        """
        if not self.is_trained:
            return dict(self._heuristic_instance_scores)
        return self._instance_scores()

    def rank(self) -> list[int]:
        """Bag ids in descending relevance (ties broken by bag id)."""
        scores = self.bag_scores()
        order = np.lexsort(
            (np.array([b.bag_id for b in self.dataset.bags]), -scores)
        )
        return [self.dataset.bags[i].bag_id for i in order]

    def rank_iter(self) -> Iterator[int]:
        """Lazy view of :meth:`rank`.

        The base ranking is one global sort, so this is just an
        iterator over it; engines that can rank incrementally (the
        sharded corpus engine's k-way merge) override it so consumers
        that stop early — ``results(vehicle_class=...)`` walking until
        ``top_k`` matches — never pay for a full materialized ranking.
        """
        return iter(self.rank())

    def top_k(self, k: int) -> list[int]:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        return self.rank()[:k]

    def explain(self, bag_id: int) -> list[InstanceExplanation]:
        """Rank the instances of one bag by current relevance.

        Returns one :class:`InstanceExplanation` per Trajectory Sequence,
        best first — "which vehicles in this Video Sequence made it a
        hit".  Uses the trained model's scores when available, the
        heuristic otherwise.
        """
        return InstanceExplanation.for_bag(
            self.dataset.bag_by_id(bag_id), self.instance_relevance(),
            self.dataset.feature_names)

    # -- to implement ------------------------------------------------------
    @abstractmethod
    def _retrain(self) -> None:
        """Refresh the internal model after new feedback arrived."""

    @abstractmethod
    def _instance_scores(self) -> dict[int, float]:
        """Relevance score per instance id, given the trained model."""
