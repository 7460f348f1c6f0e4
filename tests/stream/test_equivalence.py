"""Streaming-vs-batch equivalence: the tentpole acceptance criterion.

Streaming a clip in k segments must be *bag-for-bag and
ranking-for-ranking identical* to the batch pipeline — same bag ids and
frame spans, same instances (track ids and feature matrices), same final
tracks, and the same round-1 ranking after identical feedback.  Asserted
for k in {2, 3, 7} on both fixture clips, and, on a short clip, for any
segment length from one frame to the whole clip, segment by segment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MILRetrievalEngine
from repro.pipeline import PipelineConfig, PipelineRunner, SegmentedRunner
from repro.sim import intersection
from repro.vision import SegmentationPipeline

SHORT_FRAMES = 120


def frames_per_segment(n_frames: int, k: int) -> int:
    """Smallest segment length that splits ``n_frames`` into k segments."""
    return -(-n_frames // k)


def assert_datasets_equal(streamed, batch):
    assert streamed.clip_id == batch.clip_id
    assert streamed.event_name == batch.event_name
    assert streamed.feature_names == batch.feature_names
    assert len(streamed.bags) == len(batch.bags)
    for mine, ref in zip(streamed.bags, batch.bags):
        assert mine.bag_id == ref.bag_id
        assert (mine.frame_lo, mine.frame_hi) == \
            (ref.frame_lo, ref.frame_hi)
        assert [i.instance_id for i in mine.instances] == \
            [i.instance_id for i in ref.instances]
        assert [i.track_id for i in mine.instances] == \
            [i.track_id for i in ref.instances]
        for a, b in zip(mine.instances, ref.instances):
            np.testing.assert_array_equal(a.matrix, b.matrix)


def assert_tracks_equal(streamed, batch):
    assert len(streamed) == len(batch)
    for a, b in zip(streamed, batch):
        assert a.track_id == b.track_id
        assert a.frames == b.frames
        np.testing.assert_array_equal(a.point_array(), b.point_array())


def stream_and_check(sim, batch, k):
    runner = SegmentedRunner(
        PipelineConfig(),
        segment_frames=frames_per_segment(sim.n_frames, k))
    emissions = list(runner.stream(sim))
    assert len(emissions) == k
    assert emissions[-1].final
    artifacts = runner.artifacts
    assert artifacts is not None
    assert_datasets_equal(artifacts.dataset, batch.dataset)
    assert_tracks_equal(artifacts.tracks, batch.tracks)
    # The incremental emissions concatenate to exactly the final dataset.
    concat = [b for e in emissions for b in e.bags]
    assert [b.bag_id for b in concat] == \
        [b.bag_id for b in artifacts.dataset.bags]
    # Frontiers never regress, and every emitted bag is behind its
    # segment's frontier.
    frontiers = [e.frontier for e in emissions]
    assert frontiers == sorted(frontiers)
    for e in emissions[:-1]:
        assert all(b.frame_hi <= e.frontier for b in e.bags)
    return artifacts


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_tunnel(self, small_tunnel, tunnel_batch, k):
        stream_and_check(small_tunnel, tunnel_batch, k)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_intersection(self, small_intersection, intersection_batch,
                          k):
        stream_and_check(small_intersection, intersection_batch, k)


class TestRankingEquivalence:
    def test_round1_ranking_matches_batch(self, small_intersection,
                                          intersection_batch):
        """Identical feedback over streamed vs batch artifacts must
        produce the identical round-1 ranking."""
        runner = SegmentedRunner(
            PipelineConfig(),
            segment_frames=frames_per_segment(
                small_intersection.n_frames, 3))
        streamed = runner.run(small_intersection)
        labels = {b: True
                  for b in sorted(intersection_batch.relevant_bag_ids)}
        assert labels  # the fixture clip has incidents by construction
        mine = MILRetrievalEngine(streamed.dataset)
        ref = MILRetrievalEngine(intersection_batch.dataset)
        assert mine.rank() == ref.rank()  # round 0: heuristic order
        mine.feed(labels)
        ref.feed(labels)
        assert mine.rank() == ref.rank()


@pytest.fixture(scope="module")
def short_clip():
    return intersection(n_frames=SHORT_FRAMES, width=96, height=72, seed=4,
                        n_collisions=1)


@pytest.fixture(scope="module")
def short_batch(short_clip):
    """The short clip's per-frame detections from one ``process`` call
    with the stream's segmenter settings, and its batch artifacts."""
    runner = SegmentedRunner(PipelineConfig())
    segmenter = runner._fresh_carry(short_clip).segmenter
    detections = segmenter.process(runner._render(short_clip))
    return detections, PipelineRunner(PipelineConfig()).run(short_clip)


class TestAnySegmentLength:
    @settings(max_examples=40, deadline=None)
    @given(segment=st.integers(1, SHORT_FRAMES))
    def test_segments_detect_as_batch_does(self, short_clip, short_batch,
                                           segment):
        """Each segment's detections are its slice of ``process``, bit
        for bit, and the final artifacts equal the batch build's."""
        detections, batch = short_batch
        detected = []
        detect = SegmentationPipeline.detect

        def recording(self, i, frame):
            found = detect(self, i, frame)
            detected.append((i, found))
            return found

        runner = SegmentedRunner(PipelineConfig(), segment_frames=segment)
        seen = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SegmentationPipeline, "detect", recording)
            for emission in runner.stream(short_clip):
                lo, hi = emission.frame_lo, emission.frame_hi
                assert [i for i, _ in detected[seen:]] == list(range(lo, hi))
                assert [d for _, d in detected[seen:]] == detections[lo:hi]
                seen = len(detected)
        assert seen == SHORT_FRAMES
        assert_datasets_equal(runner.artifacts.dataset, batch.dataset)
        assert_tracks_equal(runner.artifacts.tracks, batch.tracks)
