"""Tests for occlusion/dropout track stitching."""

import pytest

from repro.errors import ConfigurationError
from repro.tracking import CentroidTracker, Track, stitch_tracks
from repro.vision.blobs import Blob
from repro.vision.pipeline import Detection


def _fragment(track_id, start_frame, start_xy, v, n):
    track = Track(track_id)
    x, y = start_xy
    for k in range(n):
        blob = Blob(cx=x + v[0] * k, cy=y + v[1] * k,
                    x0=0, y0=0, x1=4, y1=4, area=16,
                    mean_intensity=200.0)
        track.add(start_frame + k, blob)
    return track


class TestStitchTracks:
    def test_joins_gap_fragments(self):
        a = _fragment(0, 0, (0.0, 50.0), (3.0, 0.0), 20)   # ends frame 19
        b = _fragment(5, 28, (84.0, 50.0), (3.0, 0.0), 20)  # ~x at frame 28
        out = stitch_tracks([a, b], max_gap=15)
        assert len(out) == 1
        joined = out[0]
        assert joined.track_id == 0
        assert joined.first_frame == 0
        assert joined.last_frame == 47
        assert len(joined) == 40

    def test_far_fragments_not_joined(self):
        a = _fragment(0, 0, (0.0, 50.0), (3.0, 0.0), 20)
        b = _fragment(1, 28, (84.0, 150.0), (3.0, 0.0), 20)  # wrong lane
        assert len(stitch_tracks([a, b])) == 2

    def test_long_gap_not_joined(self):
        a = _fragment(0, 0, (0.0, 50.0), (3.0, 0.0), 20)
        b = _fragment(1, 60, (180.0, 50.0), (3.0, 0.0), 20)
        assert len(stitch_tracks([a, b], max_gap=15)) == 2

    def test_opposite_headings_not_joined(self):
        a = _fragment(0, 0, (0.0, 50.0), (3.0, 0.0), 20)
        # Starts where a's prediction lands, but drives the other way.
        b = _fragment(1, 25, (75.0, 50.0), (-3.0, 0.0), 20)
        assert len(stitch_tracks([a, b])) == 2

    def test_chain_collapses(self):
        a = _fragment(0, 0, (0.0, 50.0), (3.0, 0.0), 10)    # ends 9
        b = _fragment(1, 15, (45.0, 50.0), (3.0, 0.0), 10)  # ends 24
        c = _fragment(2, 30, (90.0, 50.0), (3.0, 0.0), 10)
        out = stitch_tracks([a, b, c])
        assert len(out) == 1
        assert len(out[0]) == 30

    def test_two_parallel_vehicles_stay_separate(self):
        a1 = _fragment(0, 0, (0.0, 40.0), (3.0, 0.0), 15)
        a2 = _fragment(1, 20, (60.0, 40.0), (3.0, 0.0), 15)
        b1 = _fragment(2, 0, (0.0, 80.0), (3.0, 0.0), 15)
        b2 = _fragment(3, 20, (60.0, 80.0), (3.0, 0.0), 15)
        out = stitch_tracks([a1, a2, b1, b2])
        assert len(out) == 2
        lanes = sorted(t.point_array()[0, 1] for t in out)
        assert lanes == [40.0, 80.0]

    def test_stopped_fragments_join_on_position(self):
        a = _fragment(0, 0, (50.0, 50.0), (0.0, 0.0), 10)
        b = _fragment(1, 15, (50.0, 50.0), (0.0, 0.0), 10)
        assert len(stitch_tracks([a, b])) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            stitch_tracks([], max_gap=0)
        with pytest.raises(ConfigurationError):
            stitch_tracks([], min_cos=2.0)

    def test_empty_input(self):
        assert stitch_tracks([]) == []


class TestStitchAfterOcclusion:
    def test_occlusion_band_fragments_rejoined(self):
        """Tracker splits at an occluder; stitching restores one track."""
        from repro.eval.robustness import inject_occlusion_band

        dets = []
        for f in range(60):
            x = 3.0 * f
            blob = Blob(cx=x, cy=50.0, x0=int(x) - 5, y0=47, x1=int(x) + 5,
                        y1=53, area=60, mean_intensity=200.0)
            dets.append([Detection(frame=f, blob=blob)])
        occluded = inject_occlusion_band(dets, 60.0, 110.0)
        fragments = CentroidTracker(max_misses=2,
                                    min_track_length=4).track(occluded)
        assert len(fragments) == 2  # the band split the vehicle
        stitched = stitch_tracks(fragments, max_gap=20)
        assert len(stitched) == 1
        assert stitched[0].covers(30)  # interpolates across the band
