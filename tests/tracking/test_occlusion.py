"""Tests for blob-merge detection."""

from repro.tracking import Track
from repro.tracking.occlusion import (
    MergeEvent,
    MergeInterval,
    detect_merge_events,
    merge_intervals,
)
from repro.vision.blobs import Blob
from repro.vision.pipeline import Detection


def _track(track_id, xs, y, first_frame=0):
    track = Track(track_id)
    for i, x in enumerate(xs):
        blob = Blob(cx=float(x), cy=float(y), x0=int(x) - 5, y0=int(y) - 3,
                    x1=int(x) + 5, y1=int(y) + 3, area=60,
                    mean_intensity=200.0)
        track.add(first_frame + i, blob)
    return track


def _det(frame, x0, y0, x1, y1):
    blob = Blob(cx=(x0 + x1) / 2, cy=(y0 + y1) / 2, x0=x0, y0=y0,
                x1=x1, y1=y1, area=(x1 - x0) * (y1 - y0),
                mean_intensity=200.0)
    return Detection(frame=frame, blob=blob)


class TestDetectMergeEvents:
    def test_two_tracks_in_one_blob(self):
        a = _track(0, [10 + 2 * i for i in range(20)], 50)
        b = _track(1, [60 - 2 * i for i in range(20)], 52)
        # At frame 12 both sit near x=34: one wide blob covers them.
        detections = [[] for _ in range(20)]
        detections[12] = [_det(12, 25, 44, 46, 58)]
        events = detect_merge_events([a, b], detections)
        assert len(events) == 1
        assert events[0].track_ids == (0, 1)
        assert events[0].frame == 12

    def test_separate_blobs_no_event(self):
        a = _track(0, [10 + 2 * i for i in range(20)], 50)
        b = _track(1, [200 + 2 * i for i in range(20)], 52)
        detections = [[] for _ in range(20)]
        detections[12] = [_det(12, 29, 44, 40, 58), _det(12, 219, 44, 230, 58)]
        assert detect_merge_events([a, b], detections) == []

    def test_coasting_track_still_counted(self):
        """A track that died just before the merge still claims it."""
        a = _track(0, [10 + 2 * i for i in range(10)], 50)  # ends frame 9
        b = _track(1, [40 - 1 * i for i in range(14)], 51)
        detections = [[] for _ in range(14)]
        detections[12] = [_det(12, 22, 44, 42, 58)]
        events = detect_merge_events([a, b], detections, coast=5)
        assert events and events[0].track_ids == (0, 1)

    def test_empty_inputs(self):
        assert detect_merge_events([], [[], []]) == []

    def test_collision_scenario_produces_merges(self, small_intersection):
        """Real pipeline: crashing vehicles merge into one blob."""
        from repro.tracking import CentroidTracker
        from repro.vision import SegmentationPipeline, VideoClip

        clip = VideoClip.from_simulation(small_intersection, render_seed=3)
        detections = SegmentationPipeline(use_spcpe=False).process(clip)
        tracks = CentroidTracker().track(detections)
        events = detect_merge_events(tracks, detections)
        assert events, "collisions should create merged blobs"
        # At least one merge overlaps a true collision interval.
        collisions = [r for r in small_intersection.incidents
                      if r.kind == "collision"]
        hit = any(
            any(r.frame_start - 10 <= e.frame <= r.frame_end + 40
                for r in collisions)
            for e in events
        )
        assert hit


class TestMergeIntervals:
    def test_consecutive_frames_grouped(self):
        events = [MergeEvent(f, (0, 1), (0, 0, 10, 10))
                  for f in (5, 6, 7, 8)]
        intervals = merge_intervals(events)
        assert intervals == [MergeInterval((0, 1), 5, 8)]
        assert intervals[0].duration == 4

    def test_gap_splits_interval(self):
        events = [MergeEvent(f, (0, 1), (0, 0, 10, 10))
                  for f in (5, 6, 20, 21)]
        intervals = merge_intervals(events)
        assert len(intervals) == 2

    def test_groups_separated(self):
        events = [MergeEvent(5, (0, 1), (0, 0, 10, 10)),
                  MergeEvent(5, (2, 3), (50, 0, 60, 10))]
        intervals = merge_intervals(events)
        assert {iv.track_ids for iv in intervals} == {(0, 1), (2, 3)}
