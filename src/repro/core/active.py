"""Active relevance feedback: spend part of each round exploring.

The paper's protocol shows the user the plain top-k every round — pure
exploitation.  A classic refinement is to reserve a few slots for the
bags the current model is most *uncertain* about (decision value nearest
the boundary): their labels carry the most information for the next
round.  :class:`ActiveRetrievalSession` implements that mix and tracks
both what was shown and how good the pure top-k ranking would be.
"""

from __future__ import annotations

import numpy as np

from repro.core.feedback import OracleUser, RetrievalSession, RoundResult
from repro.core.sharded import ShardedRetrievalEngine
from repro.errors import ConfigurationError

__all__ = ["ActiveRetrievalSession"]


class ActiveRetrievalSession(RetrievalSession):
    """Feedback session that labels top bags *and* uncertain bags.

    Each round shows ``top_k - explore_k`` best-ranked bags plus
    ``explore_k`` unlabeled bags whose scores sit closest to the decision
    boundary (after feedback exists; before that, the exploration slots
    take the bags just below the cut, the "frontier").
    """

    def __init__(self, engine: ShardedRetrievalEngine, user: OracleUser,
                 top_k: int = 20, explore_k: int = 5) -> None:
        super().__init__(engine=engine, user=user, top_k=top_k)
        if not 0 <= explore_k < top_k:
            raise ConfigurationError(
                f"explore_k must be in [0, top_k), got {explore_k}"
            )
        self.explore_k = int(explore_k)

    def _exploration_candidates(self, exclude: set[int]) -> list[int]:
        # bag_scores() is indexed by global bag id, over one clip's
        # dataset and a multi-clip corpus alike.
        scores = self.engine.bag_scores()
        unlabeled = [
            (bag_id, scores[bag_id]) for bag_id in range(len(scores))
            if bag_id not in exclude and bag_id not in self.engine.labels
            and np.isfinite(scores[bag_id])
        ]
        if not unlabeled:
            return []
        if self.engine.has_relevant_feedback:
            # One-class decision boundary sits at zero.
            unlabeled.sort(key=lambda pair: abs(pair[1]))
        # Heuristic rounds: candidates are already in frontier order via
        # the ranking; keep score-descending among unlabeled.
        else:
            unlabeled.sort(key=lambda pair: -pair[1])
        return [bag_id for bag_id, _ in unlabeled]

    def run_round(self) -> RoundResult:
        exploit_k = self.top_k - self.explore_k
        ranking = self.engine.rank()
        shown = ranking[:exploit_k]
        explore = self._exploration_candidates(set(shown))
        shown = shown + explore[: self.top_k - len(shown)]
        if len(shown) < self.top_k:
            # Exploration pool exhausted (everything labeled): backfill
            # with the next best-ranked bags so a round always shows
            # top_k results.
            have = set(shown)
            shown += [b for b in ranking
                      if b not in have][: self.top_k - len(shown)]
        bags = [self.engine.dataset.bag_by_id(b) for b in shown]
        labels = self.user.label_bags(bags)
        result = RoundResult(
            round_index=len(self.rounds),
            returned_bag_ids=shown,
            labels=labels,
        )
        self.rounds.append(result)
        self.engine.feed(labels)
        return result
