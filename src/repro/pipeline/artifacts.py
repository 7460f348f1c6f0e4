"""The per-clip artifact bundle consumed by evaluation and the database."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.bags import MILDataset
from repro.events.models import event_model_for
from repro.sim.ground_truth import GroundTruth
from repro.sim.world import SimulationResult
from repro.tracking.track import Track

__all__ = ["ClipArtifacts"]


@dataclass
class ClipArtifacts:
    """Everything downstream evaluation needs for one clip."""

    result: SimulationResult
    tracks: list[Track]
    dataset: MILDataset
    ground_truth: GroundTruth
    #: stage name -> times the stage actually executed for this bundle
    #: (0 = served from the artifact store).
    stage_runs: dict[str, int] = field(default_factory=dict)

    @cached_property
    def relevant_bag_ids(self) -> set[int]:
        """Bags a querying user of this dataset's event would confirm.

        Cached: resolving the event model and re-labelling every bag
        against ground truth is O(n_bags x n_incidents), and callers
        (the RF protocol, experiment metadata) ask once per round.
        """
        model = event_model_for(self.dataset.event_name)
        return {
            b.bag_id for b in self.dataset.bags
            if self.ground_truth.label_window(b.frame_lo, b.frame_hi,
                                              model.relevant_kinds)
        }
