"""Evaluation harness: metrics, the RF protocol, experiment runners.

``experiments`` contains one runner per paper figure / in-text claim
(see DESIGN.md's per-experiment index); ``benchmarks/`` calls these and
prints paper-vs-measured tables.
"""

from repro.eval.metrics import accuracy_at_k, overall_gain
from repro.eval.parallel import (
    IngestTask,
    artifacts_for_seeds,
    build_artifacts_parallel,
)
from repro.eval.pipeline import ClipArtifacts, build_artifacts
from repro.eval.protocol import ProtocolResult, run_protocol
from repro.eval.experiments import (
    ExperimentResult,
    ablation_normalization,
    ablation_window,
    ablation_z,
    figure8,
    figure9,
    mil_algorithms,
    other_events,
)
from repro.eval.reporting import comparison_table, format_series_table

__all__ = [
    "accuracy_at_k",
    "overall_gain",
    "ClipArtifacts",
    "build_artifacts",
    "IngestTask",
    "artifacts_for_seeds",
    "build_artifacts_parallel",
    "ProtocolResult",
    "run_protocol",
    "ExperimentResult",
    "figure8",
    "figure9",
    "ablation_z",
    "ablation_normalization",
    "ablation_window",
    "other_events",
    "mil_algorithms",
    "comparison_table",
    "format_series_table",
]
