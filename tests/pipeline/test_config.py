"""Stage-config fingerprints: stability, sensitivity, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.events.features import SamplingConfig
from repro.pipeline import (
    OracleConfig,
    PipelineConfig,
    RenderConfig,
    SegmentConfig,
    SeriesConfig,
    WindowConfig,
    build_stages,
)


class TestParamsKey:
    def test_equal_configs_equal_keys(self):
        assert (WindowConfig(window_size=5).params_key()
                == WindowConfig(window_size=5).params_key())

    def test_any_field_change_changes_key(self):
        base = SegmentConfig().params_key()
        assert SegmentConfig(use_spcpe=True).params_key() != base
        assert SegmentConfig(min_area=26).params_key() != base
        assert SegmentConfig(max_area=None).params_key() != base

    def test_key_is_hashable_and_deterministic(self):
        key = SeriesConfig(
            sampling=SamplingConfig(sampling_rate=7)).params_key()
        assert hash(key) == hash(key)
        assert key == SeriesConfig(
            sampling=SamplingConfig(sampling_rate=7)).params_key()

    def test_different_config_classes_differ(self):
        # Same (empty-ish) payload, different stage family.
        assert RenderConfig().params_key() != OracleConfig().params_key()

    def test_nested_sampling_config_participates(self):
        a = SeriesConfig(sampling=SamplingConfig(sampling_rate=5))
        b = SeriesConfig(sampling=SamplingConfig(sampling_rate=8))
        assert a.params_key() != b.params_key()


class TestPipelineConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(mode="psychic")

    def test_oracle_stitch_rejected(self):
        from repro.pipeline import StitchConfig

        with pytest.raises(ConfigurationError):
            PipelineConfig(mode="oracle", stitch=StitchConfig(enabled=True))

    def test_stage_chain_shapes(self):
        vision = [s.name for s in build_stages(PipelineConfig())]
        oracle = [s.name
                  for s in build_stages(PipelineConfig(mode="oracle"))]
        assert vision == ["render", "segment", "track", "stitch",
                          "series", "windows"]
        assert oracle == ["oracle", "series", "windows"]

    def test_from_build_kwargs_roundtrip(self):
        cfg = PipelineConfig.from_build_kwargs(
            event="speeding", mode="oracle", window_size=5, step=1,
            oracle_jitter=0.1, seed=9)
        assert cfg.windows.event == "speeding"
        assert cfg.windows.window_size == 5
        assert cfg.windows.step == 1
        assert cfg.oracle.jitter == 0.1
        assert cfg.oracle.seed == 9

    def test_event_model_instance_accepted(self):
        from repro.events.models import AccidentModel

        cfg = PipelineConfig.from_build_kwargs(event=AccidentModel(),
                                               mode="oracle")
        assert cfg.windows.event == "accident"
        assert isinstance(cfg.resolve_event_model(), AccidentModel)
