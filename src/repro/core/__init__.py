"""The paper's contribution: MIL + relevance-feedback retrieval.

* :mod:`repro.core.bags` — Video Sequences as MIL bags, Trajectory
  Sequences as instances (paper Eq. 3-4).
* :mod:`repro.core.heuristics` — the initial, feedback-free ranking.
* :mod:`repro.core.rule` — the paper's learning rule (Section 5.3), the
  fitted value it returns, and the protocols every rule and fit follow.
* :mod:`repro.core.sharded` / :mod:`repro.core.engine` — the MIL
  retrieval engine over a corpus of per-clip shards, and over one clip
  (paper Section 5).
* :mod:`repro.core.weighted_rf` — the weighted relevance-feedback
  baseline the paper compares against (Section 6.2), as a rule.
* :mod:`repro.core.feedback` — the interactive loop and the oracle user.
* :mod:`repro.core.diverse_density` / :mod:`repro.core.emdd` — extension
  MIL baselines from the paper's literature review (Section 2.1), as
  rules.
"""

from repro.core.bags import Bag, Instance, MILDataset, merge_datasets
from repro.core.active import ActiveRetrievalSession
from repro.core.heuristics import heuristic_scores
from repro.core.engine import MILRetrievalEngine
from repro.core.weighted_rf import WeightedRFEngine
from repro.core.feedback import MultiClipOracle, OracleUser, RetrievalSession
from repro.core.diverse_density import DiverseDensityEngine
from repro.core.emdd import EMDDEngine
from repro.core.sharded import (
    CorpusShard,
    CoverageReport,
    InstanceExplanation,
    ShardOutage,
    ShardSpec,
    ShardedCorpus,
    ShardedRetrievalEngine,
)
from repro.core.query_types import (
    CombinedQueryEngine,
    ExampleQueryEngine,
    sketch_to_example,
)

__all__ = [
    "Bag",
    "Instance",
    "MILDataset",
    "merge_datasets",
    "MultiClipOracle",
    "heuristic_scores",
    "MILRetrievalEngine",
    "WeightedRFEngine",
    "OracleUser",
    "RetrievalSession",
    "DiverseDensityEngine",
    "EMDDEngine",
    "ExampleQueryEngine",
    "CombinedQueryEngine",
    "sketch_to_example",
    "InstanceExplanation",
    "ActiveRetrievalSession",
    "ShardSpec",
    "CorpusShard",
    "ShardedCorpus",
    "ShardedRetrievalEngine",
    "ShardOutage",
    "CoverageReport",
]
