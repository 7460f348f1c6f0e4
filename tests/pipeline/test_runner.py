"""PipelineRunner: fingerprint invalidation, suffix recompute, reuse.

The invalidation contract under test (ISSUE 2): identical configs are
served byte-identically from the store; changing one upstream stage's
config recomputes exactly the dependent suffix — asserted through the
per-run stage-execution counters the runner reports.
"""

import pickle

import numpy as np
import pytest

from repro.events.features import SamplingConfig
from repro.pipeline import (
    DiskArtifactStore,
    MemoryArtifactStore,
    OracleConfig,
    PipelineConfig,
    PipelineRunner,
    SegmentConfig,
    SeriesConfig,
    WindowConfig,
    clip_digest,
)


def oracle_config(**over) -> PipelineConfig:
    kwargs = dict(mode="oracle")
    kwargs.update(over)
    return PipelineConfig(**kwargs)


def dataset_bytes(artifacts) -> bytes:
    return pickle.dumps(artifacts.dataset)


class TestReuse:
    def test_identical_config_serves_from_store(self, small_tunnel,
                                                tmp_path):
        store = DiskArtifactStore(tmp_path / "cache")
        cold = PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        warm = PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        assert all(runs >= 1 for runs in cold.stage_runs.values())
        assert all(runs == 0 for runs in warm.stage_runs.values())
        assert dataset_bytes(warm) == dataset_bytes(cold)
        np.testing.assert_array_equal(warm.dataset.instance_matrix(),
                                      cold.dataset.instance_matrix())

    def test_tracks_recovered_from_store(self, small_tunnel, tmp_path):
        store = DiskArtifactStore(tmp_path / "cache")
        cold = PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        warm = PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        assert len(warm.tracks) == len(cold.tracks)
        for a, b in zip(cold.tracks, warm.tracks):
            assert a.track_id == b.track_id
            np.testing.assert_array_equal(a.point_array(), b.point_array())

    def test_no_store_runs_everything(self, small_tunnel):
        artifacts = PipelineRunner(oracle_config()).run(small_tunnel)
        assert all(runs == 1 for runs in artifacts.stage_runs.values())


class TestSuffixInvalidation:
    def test_window_change_recomputes_windows_only(self, small_tunnel):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            oracle_config(windows=WindowConfig(window_size=5)),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {"oracle": 0, "series": 0, "windows": 1}

    def test_step_change_recomputes_windows_only(self, small_tunnel):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            oracle_config(windows=WindowConfig(step=1)),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {"oracle": 0, "series": 0, "windows": 1}

    def test_sampling_change_recomputes_series_suffix(self, small_tunnel):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            oracle_config(
                series=SeriesConfig(SamplingConfig(sampling_rate=8))),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {"oracle": 0, "series": 1, "windows": 1}

    def test_oracle_change_recomputes_everything(self, small_tunnel):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            oracle_config(oracle=OracleConfig(jitter=0.1)),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {"oracle": 1, "series": 1, "windows": 1}

    def test_event_change_recomputes_windows_only(self, small_tunnel):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            oracle_config(windows=WindowConfig(event="speeding")),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {"oracle": 0, "series": 0, "windows": 1}
        assert swept.dataset.event_name == "speeding"

    def test_different_clip_misses_entirely(self, small_tunnel,
                                            small_intersection):
        store = MemoryArtifactStore()
        PipelineRunner(oracle_config(), store=store).run(small_tunnel)
        other = PipelineRunner(oracle_config(),
                               store=store).run(small_intersection)
        assert all(runs == 1 for runs in other.stage_runs.values())


@pytest.mark.slow
class TestVisionInvalidation:
    def test_vision_sweep_reuses_front_end(self, small_tunnel, tmp_path):
        store = DiskArtifactStore(tmp_path / "cache")
        cold = PipelineRunner(PipelineConfig(), store=store).run(small_tunnel)
        assert cold.stage_runs["render"] == 1
        swept = PipelineRunner(
            PipelineConfig(windows=WindowConfig(window_size=5)),
            store=store).run(small_tunnel)
        # Render is lazy/uncacheable but is only needed when Segment
        # actually runs; a windows-only change replays everything else.
        assert swept.stage_runs == {
            "render": 0, "segment": 0, "track": 0, "stitch": 0,
            "series": 0, "windows": 1}

    def test_segment_change_recomputes_vision_suffix(self, small_tunnel,
                                                     tmp_path):
        store = DiskArtifactStore(tmp_path / "cache")
        PipelineRunner(PipelineConfig(), store=store).run(small_tunnel)
        swept = PipelineRunner(
            PipelineConfig(segment=SegmentConfig(min_area=30)),
            store=store).run(small_tunnel)
        assert swept.stage_runs == {
            "render": 1, "segment": 1, "track": 1, "stitch": 1,
            "series": 1, "windows": 1}


class TestClipDigest:
    def test_digest_deterministic(self, small_tunnel):
        assert clip_digest(small_tunnel) == clip_digest(small_tunnel)

    def test_digest_separates_clips(self, small_tunnel, small_intersection):
        assert clip_digest(small_tunnel) != clip_digest(small_intersection)

    def test_chain_keys_unique_per_stage(self, small_tunnel):
        runner = PipelineRunner(oracle_config())
        keys = runner.chain_keys(small_tunnel)
        assert len(keys) == len(set(keys)) == len(runner.stages)
