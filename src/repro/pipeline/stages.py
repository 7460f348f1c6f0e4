"""Stage objects: typed units of the clip-ingestion pipeline.

Each stage consumes the previous stage's artifact and produces its own
(paper Figure 6: segmentation -> tracking -> trajectory/event modeling ->
VS/TS windowing).  A stage carries

* a ``name`` (its position in the chain key),
* a config whose ``params_key()`` is the stage fingerprint,
* an ``executions`` counter (how many times ``run`` actually computed,
  as opposed to being served from an artifact store), and
* ``cacheable``/``provides`` flags the runner uses to decide what gets
  persisted and which outputs surface in :class:`ClipArtifacts`.

The Render stage is *not* cacheable: its output is a lazily-rendered
``VideoClip`` closure (cheap to rebuild, unpicklable by design), and the
expensive work it feeds — segmentation — caches right behind it.
"""

from __future__ import annotations

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
from repro.sim.world import SimulationResult

__all__ = [
    "StageContext",
    "Stage",
    "RenderStage",
    "SegmentStage",
    "TrackStage",
    "OracleStage",
    "StitchStage",
    "SeriesStage",
    "WindowsStage",
    "build_stages",
]


class StageContext:
    """Per-run state shared by all stages of one clip."""

    def __init__(self, result: SimulationResult) -> None:
        self.result = result


class Stage:
    """One pipeline step: typed input artifact -> typed output artifact."""

    name: str = "stage"
    cacheable: bool = True
    #: Which :class:`ClipArtifacts` field this stage's output fills
    #: (``"tracks"``, ``"dataset"``, or None for internal artifacts).
    provides: str | None = None

    def __init__(self, config: StageConfig) -> None:
        self.config = config
        self.executions = 0

    def fingerprint(self) -> tuple:
        """Hashable identity of this stage: name + config params."""
        return (self.name, self.config.params_key())

    def run(self, ctx: StageContext, value):
        self.executions += 1
        return self._run(ctx, value)

    def _run(self, ctx: StageContext, value):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.config!r})"


class RenderStage(Stage):
    """SimulationResult -> VideoClip (lazy frames; never persisted)."""

    name = "render"
    cacheable = False
    config: RenderConfig

    def _run(self, ctx: StageContext, value):
        from repro.vision.frames import VideoClip

        return VideoClip.from_simulation(
            ctx.result,
            render_seed=self.config.render_seed,
            noise_sigma=self.config.noise_sigma,
            fps=self.config.fps,
        )


class SegmentStage(Stage):
    """VideoClip -> per-frame detection lists."""

    name = "segment"
    config: SegmentConfig

    def _run(self, ctx: StageContext, value):
        from repro.vision.pipeline import SegmentationPipeline

        return SegmentationPipeline(
            use_spcpe=self.config.use_spcpe,
            min_area=self.config.min_area,
            max_area=self.config.max_area,
            patch_margin=self.config.patch_margin,
        ).process(value)


class TrackStage(Stage):
    """Detections -> tracks (Hungarian centroid tracker)."""

    name = "track"
    config: TrackConfig

    def _run(self, ctx: StageContext, value):
        from repro.tracking.tracker import CentroidTracker

        return CentroidTracker().track(value)


class OracleStage(Stage):
    """SimulationResult -> tracks straight from simulator truth."""

    name = "oracle"
    provides = "tracks"
    config: OracleConfig

    def _run(self, ctx: StageContext, value):
        from repro.tracking.oracle import tracks_from_simulation

        return tracks_from_simulation(
            ctx.result,
            jitter=self.config.jitter,
            seed=self.config.seed,
            min_track_length=self.config.min_track_length,
        )


class StitchStage(Stage):
    """Tracks -> occlusion/dropout-stitched tracks (identity if disabled)."""

    name = "stitch"
    provides = "tracks"
    config: StitchConfig

    def _run(self, ctx: StageContext, value):
        if not self.config.enabled:
            return value
        from repro.tracking.stitching import stitch_tracks

        return stitch_tracks(value)


class SeriesStage(Stage):
    """Tracks -> checkpoint-aligned feature series."""

    name = "series"
    config: SeriesConfig

    def _run(self, ctx: StageContext, value):
        from repro.events.features import extract_series

        return extract_series(value, self.config.sampling)


class WindowsStage(Stage):
    """Feature series -> MIL dataset of VS bags / TS instances."""

    name = "windows"
    provides = "dataset"

    def __init__(self, config: WindowConfig, series: SeriesConfig,
                 pipeline: PipelineConfig) -> None:
        super().__init__(config)
        self._series = series
        self._pipeline = pipeline

    def fingerprint(self) -> tuple:
        # The event model shapes the dataset (feature channels, labels),
        # so custom models registered under the same name still separate.
        model = self._pipeline.resolve_event_model()
        return (self.name, self.config.params_key(),
                (type(model).__name__, model.name,
                 tuple(model.feature_names)))

    def _run(self, ctx: StageContext, value):
        from repro.events.windows import build_dataset

        return build_dataset(
            value,
            self._pipeline.resolve_event_model(),
            clip_id=ctx.result.name,
            window_size=self.config.window_size,
            step=self.config.step,
            config=self._series.sampling,
            keep_empty=self.config.keep_empty,
        )


def build_stages(config: PipelineConfig) -> list[Stage]:
    """The stage chain for one pipeline config, in execution order."""
    windows = WindowsStage(config.windows, config.series, config)
    if config.mode == "oracle":
        return [OracleStage(config.oracle), SeriesStage(config.series),
                windows]
    return [
        RenderStage(config.render),
        SegmentStage(config.segment),
        TrackStage(config.track),
        StitchStage(config.stitch),
        SeriesStage(config.series),
        windows,
    ]
