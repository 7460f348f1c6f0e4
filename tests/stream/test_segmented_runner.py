"""SegmentedRunner: config gating, cached replay, kill-and-resume.

The resume contract mirrors the batch runner's: per-segment artifacts
are content addressed, a rerun replays the deepest contiguous cached
prefix and computes the rest, and a corrupt blob demotes the resume to
a full recompute (slower, never wrong).
"""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, StorageError
from repro.obs import Telemetry, set_telemetry
from repro.pipeline import segmented
from repro.pipeline import (
    DiskArtifactStore,
    MemoryArtifactStore,
    PipelineConfig,
    SegmentedRunner,
    StitchConfig,
)
from repro.sim import tunnel


@pytest.fixture(scope="module")
def clip():
    return tunnel(n_frames=300, seed=5, n_wall_crashes=1,
                  n_sudden_stops=1)


@pytest.fixture(scope="module")
def reference(clip):
    """Uncached streamed artifacts — the comparison target."""
    return SegmentedRunner(segment_frames=110).run(clip)


@pytest.fixture()
def fresh_telemetry():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


def assert_matches_reference(artifacts, reference):
    assert [b.bag_id for b in artifacts.dataset.bags] == \
        [b.bag_id for b in reference.dataset.bags]
    np.testing.assert_array_equal(artifacts.dataset.instance_matrix(),
                                  reference.dataset.instance_matrix())
    assert [t.track_id for t in artifacts.tracks] == \
        [t.track_id for t in reference.tracks]


class TestConfigGating:
    def test_oracle_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="vision"):
            SegmentedRunner(PipelineConfig(mode="oracle"))

    def test_stitching_rejected(self):
        with pytest.raises(ConfigurationError, match="stitch"):
            SegmentedRunner(
                PipelineConfig(stitch=StitchConfig(enabled=True)))

    def test_segment_frames_validated(self):
        with pytest.raises(ConfigurationError, match="segment_frames"):
            SegmentedRunner(segment_frames=0)


class TestSegmentKeys:
    def test_every_key_covers_the_whole_clip(self, clip):
        # The background bootstrap samples the entire clip, so changing
        # any frame must invalidate every segment key — including the
        # first one.
        runner = SegmentedRunner(segment_frames=110)
        other = tunnel(n_frames=300, seed=6, n_wall_crashes=1,
                       n_sudden_stops=1)
        assert set(runner.segment_keys(clip)).isdisjoint(
            runner.segment_keys(other))

    def test_segment_length_is_part_of_the_key(self, clip):
        a = SegmentedRunner(segment_frames=110).segment_keys(clip)
        b = SegmentedRunner(segment_frames=150).segment_keys(clip)
        assert set(a).isdisjoint(b)


class TestResume:
    def test_full_cache_replays_without_compute(self, clip, reference):
        store = MemoryArtifactStore()
        SegmentedRunner(segment_frames=110, store=store).run(clip)
        warm = SegmentedRunner(segment_frames=110, store=store)
        emissions = list(warm.stream(clip))
        assert all(e.cached for e in emissions)
        assert warm.segments_executed == 0
        assert warm.segments_cached == len(emissions)
        assert_matches_reference(warm.artifacts, reference)

    def test_kill_mid_stream_resumes_after_cached_prefix(
            self, clip, reference, tmp_path):
        store = DiskArtifactStore(tmp_path / "cache")
        killed = SegmentedRunner(segment_frames=110, store=store)
        stream = killed.stream(clip)
        next(stream)
        stream.close()  # the "kill": only segment 0 is durable
        assert killed.artifacts is None

        resumed = SegmentedRunner(segment_frames=110, store=store)
        emissions = list(resumed.stream(clip))
        assert [e.cached for e in emissions] == [True, False, False]
        assert resumed.segments_executed == 2
        assert_matches_reference(resumed.artifacts, reference)

    def test_carry_survives_a_pickle_round_trip(self, clip, tmp_path):
        # DiskArtifactStore pickles every artifact, so the kill/resume
        # path above already exercises this end to end; this pins the
        # carry contract directly.
        store = MemoryArtifactStore()
        runner = SegmentedRunner(segment_frames=110, store=store)
        stream = runner.stream(clip)
        next(stream)
        stream.close()
        art = store.load(runner.segment_keys(clip)[0])
        clone = pickle.loads(pickle.dumps(art.carry))
        assert clone.emitter.n_emitted == art.carry.emitter.n_emitted
        assert len(clone.tracker.open_tracks) == \
            len(art.carry.tracker.open_tracks)

    def test_corrupt_cached_prefix_demotes_to_recompute(
            self, clip, reference, fresh_telemetry, monkeypatch):
        store = MemoryArtifactStore()
        SegmentedRunner(segment_frames=110, store=store).run(clip)

        def broken_load(key):
            raise StorageError(f"checksum mismatch for {key}")

        monkeypatch.setattr(store, "load", broken_load)
        demoted = SegmentedRunner(segment_frames=110, store=store)
        emissions = list(demoted.stream(clip))
        assert not any(e.cached for e in emissions)
        assert demoted.segments_executed == len(emissions)
        assert fresh_telemetry.counter(
            "pipeline.integrity_recoveries").value() == 1
        assert_matches_reference(demoted.artifacts, reference)

    def test_streaming_telemetry_recorded(self, clip, fresh_telemetry):
        runner = SegmentedRunner(segment_frames=110)
        runner.run(clip)
        t = fresh_telemetry
        assert t.counter("ingest.segments").value(
            outcome="computed") == 3
        assert t.counter("ingest.bags_emitted").value() == \
            len(runner.artifacts.dataset.bags)
        names = {s.name for s in t.spans}
        assert {"ingest.segment", "pipeline.stream"} <= names


class TestCarryCopy:
    def test_no_store_copies_no_carry(self, small_tunnel, tunnel_batch,
                                      monkeypatch):
        """Only a store reads a segment's carry snapshot, so a stream
        without one never deep-copies the carry."""
        copies = []
        deepcopy = segmented.copy.deepcopy

        def counting(obj, *args, **kwargs):
            copies.append(type(obj).__name__)
            return deepcopy(obj, *args, **kwargs)

        monkeypatch.setattr(segmented.copy, "deepcopy", counting)
        runner = SegmentedRunner(segment_frames=100)
        emissions = list(runner.stream(small_tunnel))
        assert len(emissions) == 5
        assert copies == []
        assert_matches_reference(runner.artifacts, tunnel_batch)


class TestFirstWindow:
    def test_first_bags_are_final_after_segment_zero(
            self, small_intersection, intersection_batch):
        """Streaming makes the clip queryable early: of four 100-frame
        segments, the first already emits final bags — the batch
        dataset's leading bags."""
        runner = SegmentedRunner(segment_frames=100)
        assert len(runner.segment_bounds(small_intersection.n_frames)) == 4
        first = next(e for e in runner.stream(small_intersection) if e.bags)
        assert first.index == 0
        assert [b.bag_id for b in first.bags] == [
            b.bag_id
            for b in intersection_batch.dataset.bags[:len(first.bags)]]
