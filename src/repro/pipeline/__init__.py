"""Staged clip-ingestion pipeline with content-addressed artifact reuse.

The paper's fixed five-stage chain (Figure 6) as explicit, composable
:class:`~repro.pipeline.stages.Stage` objects — Render, Segment, Track,
Stitch, Series, Windows (plus the Oracle shortcut) — each with a typed
config whose ``params_key()`` fingerprint chains into the content
address of the stage's artifact.  :class:`PipelineRunner` composes the
chain over an optional :class:`ArtifactStore`, so parameter sweeps reuse
every upstream artifact and config changes invalidate exactly the
dependent suffix.  ``repro.eval.pipeline.build_artifacts`` is a thin
compatibility shim over this package.
"""

from repro.pipeline.artifacts import ClipArtifacts
from repro.pipeline.config import (
    OracleConfig,
    PipelineConfig,
    RenderConfig,
    SegmentConfig,
    SeriesConfig,
    StageConfig,
    StitchConfig,
    TrackConfig,
    WindowConfig,
)
from repro.pipeline.runner import PipelineRunner, clip_digest
from repro.pipeline.segmented import (
    SegmentArtifact,
    SegmentEmission,
    SegmentedRunner,
)
from repro.pipeline.stages import Stage, StageContext, build_stages
from repro.pipeline.store import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
    StoreAudit,
    resolve_store,
)

__all__ = [
    "ClipArtifacts",
    "StageConfig",
    "RenderConfig",
    "SegmentConfig",
    "TrackConfig",
    "StitchConfig",
    "OracleConfig",
    "SeriesConfig",
    "WindowConfig",
    "PipelineConfig",
    "Stage",
    "StageContext",
    "build_stages",
    "PipelineRunner",
    "clip_digest",
    "SegmentedRunner",
    "SegmentEmission",
    "SegmentArtifact",
    "ArtifactStore",
    "MemoryArtifactStore",
    "DiskArtifactStore",
    "StoreAudit",
    "resolve_store",
]
