"""Unit tests for the Track data type."""

import pytest

from repro.errors import ConfigurationError
from repro.tracking import Track
from repro.vision.blobs import Blob


def _blob(x, y):
    return Blob(cx=float(x), cy=float(y), x0=int(x) - 5, y0=int(y) - 3,
                x1=int(x) + 5, y1=int(y) + 3, area=60, mean_intensity=200.0)


def _track(points, frames=None):
    track = Track(0)
    frames = frames if frames is not None else range(len(points))
    for f, (x, y) in zip(frames, points):
        track.add(f, _blob(x, y))
    return track


class TestAdd:
    def test_observations_accumulate(self):
        track = _track([(0, 0), (2, 0), (4, 0)])
        assert len(track) == 3
        assert track.first_frame == 0
        assert track.last_frame == 2
        assert track.point_array().shape == (3, 2)

    def test_non_increasing_frames_rejected(self):
        track = _track([(0, 0)])
        with pytest.raises(ConfigurationError):
            track.add(0, _blob(1, 1))


class TestVelocityAndPrediction:
    def test_constant_velocity_recovered(self):
        track = _track([(0, 0), (3, 0), (6, 0), (9, 0)])
        assert track.velocity() == pytest.approx([3.0, 0.0])

    def test_prediction_extrapolates(self):
        track = _track([(0, 0), (3, 0), (6, 0)])
        assert track.predict(4) == pytest.approx([12.0, 0.0])

    def test_velocity_of_single_point_is_zero(self):
        track = _track([(5, 5)])
        assert track.velocity() == pytest.approx([0.0, 0.0])
        assert track.predict(10) == pytest.approx([5.0, 5.0])

    def test_velocity_respects_frame_gaps(self):
        track = _track([(0, 0), (10, 0)], frames=[0, 5])
        assert track.velocity() == pytest.approx([2.0, 0.0])

    def test_predict_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Track(0).predict(3)


class TestPositionAt:
    def test_exact_frame(self):
        track = _track([(0, 0), (2, 2), (4, 4)])
        assert track.position_at(1) == pytest.approx([2.0, 2.0])

    def test_interpolates_gaps(self):
        track = _track([(0, 0), (10, 20)], frames=[0, 10])
        assert track.position_at(5) == pytest.approx([5.0, 10.0])

    def test_outside_span_rejected(self):
        track = _track([(0, 0), (1, 1)])
        with pytest.raises(ConfigurationError):
            track.position_at(5)

    def test_covers(self):
        track = _track([(0, 0), (1, 1)], frames=[3, 7])
        assert track.covers(3) and track.covers(5) and track.covers(7)
        assert not track.covers(2) and not track.covers(8)
