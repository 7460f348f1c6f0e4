"""The interactive loop: simulated user + retrieval session.

The paper's protocol (Section 6.2): each round the top 20 Video Sequences
are shown; the user marks each relevant or irrelevant; the engine learns
and re-ranks; five rounds are run (Initial plus four feedback rounds).
:class:`OracleUser` plays the user against simulator ground truth — a VS
is relevant iff a queried incident is visible in its frame window — with
optional label-flip noise to model human error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.bags import Bag
from repro.core.sharded import ShardedRetrievalEngine
from repro.errors import ConfigurationError
from repro.obs import get_telemetry
from repro.sim.ground_truth import GroundTruth
from repro.utils import as_rng, check_in_range

__all__ = ["OracleUser", "MultiClipOracle", "RoundResult",
           "RetrievalSession"]


class OracleUser:
    """Labels bags from ground truth, like the paper's human user.

    Parameters
    ----------
    ground_truth:
        The clip's incident log.
    kinds:
        Incident kinds this user's query targets (None = accidents).
    flip_prob:
        Probability of flipping each label (human labelling noise).
    """

    def __init__(self, ground_truth: GroundTruth,
                 kinds: Iterable[str] | None = None,
                 *, flip_prob: float = 0.0,
                 seed: int | np.random.Generator | None = 0) -> None:
        check_in_range("flip_prob", flip_prob, 0.0, 1.0)
        self.ground_truth = ground_truth
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.flip_prob = float(flip_prob)
        self.rng = as_rng(seed)

    def true_label(self, bag: Bag) -> bool:
        return self.ground_truth.label_window(
            bag.frame_lo, bag.frame_hi,
            self.kinds if self.kinds is not None else None,
        )

    def label(self, bag: Bag) -> bool:
        truth = self.true_label(bag)
        if self.flip_prob > 0 and self.rng.random() < self.flip_prob:
            return not truth
        return truth

    def label_bags(self, bags: Iterable[Bag]) -> dict[int, bool]:
        return {bag.bag_id: self.label(bag) for bag in bags}


class MultiClipOracle:
    """Oracle over a merged corpus: routes each bag to its clip's truth.

    Bags of a merged dataset (see
    :func:`repro.core.bags.merge_datasets`) carry their source clip id;
    this oracle labels each one against the matching ground truth.
    """

    def __init__(self, truths: dict[str, GroundTruth],
                 kinds: Iterable[str] | None = None,
                 *, flip_prob: float = 0.0,
                 seed: int | np.random.Generator | None = 0) -> None:
        if not truths:
            raise ConfigurationError("MultiClipOracle needs >= 1 clip")
        rng = as_rng(seed)
        self.users = {
            clip_id: OracleUser(gt, kinds, flip_prob=flip_prob, seed=rng)
            for clip_id, gt in truths.items()
        }

    def _user_for(self, bag: Bag) -> OracleUser:
        try:
            return self.users[bag.clip_id]
        except KeyError:
            raise ConfigurationError(
                f"bag {bag.bag_id} references unknown clip "
                f"{bag.clip_id!r}"
            ) from None

    def true_label(self, bag: Bag) -> bool:
        return self._user_for(bag).true_label(bag)

    def label(self, bag: Bag) -> bool:
        return self._user_for(bag).label(bag)

    def label_bags(self, bags: Iterable[Bag]) -> dict[int, bool]:
        return {bag.bag_id: self.label(bag) for bag in bags}


@dataclass
class RoundResult:
    """Outcome of one retrieval round."""

    round_index: int
    returned_bag_ids: list[int]
    labels: dict[int, bool]

    @property
    def n_relevant(self) -> int:
        return sum(self.labels.values())

    def accuracy(self) -> float:
        """Fraction of returned bags the user marked relevant (the
        paper's 'accuracy' measure, Section 6.2)."""
        if not self.returned_bag_ids:
            return 0.0
        return self.n_relevant / len(self.returned_bag_ids)


@dataclass
class RetrievalSession:
    """Drive engine/user rounds and record what was shown and labelled."""

    engine: ShardedRetrievalEngine
    user: OracleUser
    top_k: int = 20
    rounds: list[RoundResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.top_k <= 0:
            raise ConfigurationError("top_k must be positive")

    def run_round(self) -> RoundResult:
        """One iteration: rank, show top-k, collect labels, learn.

        Each round is a ``rf.round`` span; its wall clock — the paper's
        user-facing latency (ranking + re-training) — also lands in the
        ``rf.round.latency_ms`` histogram.
        """
        obs = get_telemetry()
        with obs.span("rf.round", round=len(self.rounds),
                      top_k=self.top_k) as sp:
            returned = self.engine.top_k(self.top_k)
            bags = [self.engine.dataset.bag_by_id(b) for b in returned]
            labels = self.user.label_bags(bags)
            result = RoundResult(
                round_index=len(self.rounds),
                returned_bag_ids=returned,
                labels=labels,
            )
            self.rounds.append(result)
            self.engine.feed(labels)
            if sp is not None:
                sp.set(returned=len(returned),
                       relevant=result.n_relevant)
        if sp is not None:
            obs.histogram("rf.round.latency_ms").observe(sp.wall_ms)
            obs.gauge("rf.round.ranking_size").set(len(returned))
        return result

    def run(self, n_rounds: int = 5) -> list[RoundResult]:
        """Run the paper's protocol: Initial + (n_rounds - 1) RF rounds."""
        if n_rounds <= 0:
            raise ConfigurationError("n_rounds must be positive")
        for _ in range(n_rounds):
            self.run_round()
        return self.rounds

    def accuracies(self) -> list[float]:
        return [r.accuracy() for r in self.rounds]
