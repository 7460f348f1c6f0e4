"""Instance-level diagnostics: does MIL find the responsible vehicles?

The paper's selling point (Section 1): "The user only needs to give
feedback to the whole Video Sequence and the learning algorithm will
analyze the contained Trajectory Sequences in order to find out the
spatio-temporal patterns of user-interested moving vehicle behaviors."
Bag-level accuracy does not measure that promise; this module does.  For
every truly relevant bag we check whether the engine's *highest-scored
instance* belongs to a vehicle actually involved in the overlapping
incident (matching estimated tracks to true vehicles when the vision
pipeline produced them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.sharded import ShardedRetrievalEngine
from repro.errors import ConfigurationError
from repro.eval.pipeline import ClipArtifacts
from repro.sim.ground_truth import TrackMatcher

__all__ = ["InstanceDiscovery", "evaluate_instance_discovery"]


@dataclass(frozen=True)
class InstanceDiscovery:
    """Instance-level retrieval quality over the truly relevant bags.

    ``random_top1`` is the expected top-1 precision of a uniformly random
    within-bag ordering (the involved fraction averaged over bags) — the
    chance floor any useful attribution must beat.
    """

    n_bags: int
    top1_precision: float
    mean_reciprocal_rank: float
    random_top1: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InstanceDiscovery(bags={self.n_bags}, "
                f"top1={self.top1_precision:.0%}, "
                f"mrr={self.mean_reciprocal_rank:.2f}, "
                f"chance={self.random_top1:.0%})")


def _track_to_vehicle(artifacts: ClipArtifacts) -> dict[int, int | None]:
    """Map every track id to its true vehicle id (None if unmatched)."""
    matcher = TrackMatcher(artifacts.result)
    return {
        t.track_id: matcher.match(t.frame_array(), t.point_array())
        for t in artifacts.tracks
    }


def evaluate_instance_discovery(
    artifacts: ClipArtifacts,
    engine: ShardedRetrievalEngine,
    *,
    kinds: Iterable[str] | None = None,
) -> InstanceDiscovery:
    """Score the engine's instance ranking against involved vehicles.

    For each relevant bag (ground truth), instances are ordered by the
    engine's relevance; ``top1_precision`` is the fraction of bags whose
    best instance is an involved vehicle, ``mean_reciprocal_rank`` the
    average 1/rank of the first involved instance.  Bags where no
    instance maps to an involved vehicle (e.g. the crash vehicles were
    never tracked) are excluded — they are a tracking failure, not a
    ranking one.
    """
    if engine.dataset is not artifacts.dataset:
        raise ConfigurationError(
            "engine and artifacts must share the same dataset"
        )
    from repro.events.models import event_model_for

    if kinds is None:
        kinds = event_model_for(artifacts.dataset.event_name).relevant_kinds
    track_to_vid = _track_to_vehicle(artifacts)
    scores = engine.instance_relevance()
    gt = artifacts.ground_truth

    top1_hits = 0
    reciprocal_ranks: list[float] = []
    chance: list[float] = []
    n_bags = 0
    for bag in artifacts.dataset.bags:
        if not bag.instances:
            continue
        if not gt.label_window(bag.frame_lo, bag.frame_hi, kinds):
            continue
        involved = gt.involved_vehicles(kinds, bag.frame_lo, bag.frame_hi)
        flags = []
        for inst in sorted(bag.instances,
                           key=lambda i: scores[i.instance_id],
                           reverse=True):
            vid = track_to_vid.get(inst.track_id)
            flags.append(vid is not None and vid in involved)
        if not any(flags):
            continue  # involved vehicle untracked: not a ranking failure
        n_bags += 1
        top1_hits += flags[0]
        rank = flags.index(True) + 1
        reciprocal_ranks.append(1.0 / rank)
        chance.append(sum(flags) / len(flags))

    if n_bags == 0:
        return InstanceDiscovery(n_bags=0, top1_precision=0.0,
                                 mean_reciprocal_rank=0.0,
                                 random_top1=0.0)
    return InstanceDiscovery(
        n_bags=n_bags,
        top1_precision=top1_hits / n_bags,
        mean_reciprocal_rank=float(np.mean(reciprocal_ranks)),
        random_top1=float(np.mean(chance)),
    )
