"""Per-stage configuration dataclasses with stable fingerprints.

Every stage config exposes ``params_key()`` — a hashable, deterministic
identity of the stage family plus all of its parameters, mirroring
``repro.svm.kernels.Kernel.params_key()``.  The runner chains these keys
(clip digest -> stage 1 key -> ... -> stage k key) into the content
address of stage k's artifact, so changing any upstream parameter
invalidates exactly the suffix of the pipeline that depends on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.events.features import SamplingConfig
from repro.events.models import EventModel, event_model_for

__all__ = [
    "StageConfig",
    "RenderConfig",
    "SegmentConfig",
    "TrackConfig",
    "StitchConfig",
    "OracleConfig",
    "SeriesConfig",
    "WindowConfig",
    "PipelineConfig",
]


def _freeze(value):
    """Recursively convert a config value into a hashable literal."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, frozenset):
        return tuple(sorted(map(str, value)))
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ConfigurationError(
        f"cannot fingerprint config value of type {type(value).__name__}"
    )


@dataclass(frozen=True)
class StageConfig:
    """Base class: fingerprint = class name + every dataclass field."""

    def params_key(self) -> tuple:
        return _freeze(self)


@dataclass(frozen=True)
class RenderConfig(StageConfig):
    """Simulation -> frames (``VideoClip.from_simulation``)."""

    render_seed: int = 7
    noise_sigma: float = 2.0
    fps: float = 25.0


@dataclass(frozen=True)
class SegmentConfig(StageConfig):
    """Frames -> per-frame detections (``SegmentationPipeline``)."""

    use_spcpe: bool = False
    min_area: int = 25
    max_area: int | None = 4000
    patch_margin: int = 5


@dataclass(frozen=True)
class TrackConfig(StageConfig):
    """Detections -> tracks (``CentroidTracker``)."""


@dataclass(frozen=True)
class StitchConfig(StageConfig):
    """Post-tracking fragment stitching (identity when disabled)."""

    enabled: bool = False


@dataclass(frozen=True)
class OracleConfig(StageConfig):
    """Simulator-truth tracks with optional centroid jitter."""

    jitter: float = 0.4
    seed: int = 0
    min_track_length: int = 5


@dataclass(frozen=True)
class SeriesConfig(StageConfig):
    """Tracks -> checkpoint feature series (``extract_series``)."""

    sampling: SamplingConfig = field(default_factory=SamplingConfig)


@dataclass(frozen=True)
class WindowConfig(StageConfig):
    """Feature series -> MIL dataset (``build_dataset``)."""

    event: str = "accident"
    window_size: int = 3
    step: int | None = None
    keep_empty: bool = False


@dataclass(frozen=True)
class PipelineConfig:
    """Full pipeline recipe: mode plus one config per stage.

    ``event`` may be a registered event-model name or an
    :class:`~repro.events.models.EventModel` instance (custom models);
    either way it is folded into the Windows stage fingerprint through
    the model's name and feature channels.
    """

    mode: str = "vision"
    render: RenderConfig = field(default_factory=RenderConfig)
    segment: SegmentConfig = field(default_factory=SegmentConfig)
    track: TrackConfig = field(default_factory=TrackConfig)
    stitch: StitchConfig = field(default_factory=StitchConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    series: SeriesConfig = field(default_factory=SeriesConfig)
    windows: WindowConfig = field(default_factory=WindowConfig)
    event_model: EventModel | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("vision", "oracle"):
            raise ConfigurationError(
                f"mode must be 'vision' or 'oracle', got {self.mode!r}"
            )
        if self.mode == "oracle" and self.stitch.enabled:
            raise ConfigurationError(
                "stitch=True is a vision-mode option: oracle tracks come "
                "straight from simulator truth and have nothing to stitch"
            )

    def resolve_event_model(self) -> EventModel:
        if self.event_model is not None:
            return self.event_model
        return event_model_for(self.windows.event)

    @classmethod
    def from_build_kwargs(
        cls,
        *,
        event: str | EventModel = "accident",
        mode: str = "vision",
        window_size: int = 3,
        step: int | None = None,
        sampling: SamplingConfig | None = None,
        oracle_jitter: float = 0.4,
        render_seed: int = 7,
        use_spcpe: bool = False,
        stitch: bool = False,
        seed: int = 0,
    ) -> "PipelineConfig":
        """Build a config from the historical ``build_artifacts`` keywords."""
        model = event if isinstance(event, EventModel) else None
        event_name = event.name if isinstance(event, EventModel) else event
        return cls(
            mode=mode,
            render=RenderConfig(render_seed=render_seed),
            segment=SegmentConfig(use_spcpe=use_spcpe),
            stitch=StitchConfig(enabled=stitch),
            oracle=OracleConfig(jitter=oracle_jitter, seed=seed),
            series=SeriesConfig(sampling=sampling or SamplingConfig()),
            windows=WindowConfig(event=event_name, window_size=window_size,
                                 step=step),
            event_model=model,
        )
