"""Tests for the per-pixel Gaussian background model."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import NotFittedError, PipelineError
from repro.vision import GaussianBackgroundModel, SegmentationPipeline
from tests.vision.test_background import (
    assert_bits_equal,
    frame_stacks,
    reference_sample,
)


def _scene(n=30, h=20, w=30, noise_map=None, object_frames=(), seed=0):
    """Scene with per-region noise levels and optional bright object."""
    rng = np.random.default_rng(seed)
    frames = np.full((n, h, w), 100.0)
    sigma = np.full((h, w), 1.5) if noise_map is None else noise_map
    frames += rng.normal(0, 1.0, (n, h, w)) * sigma
    for i in object_frames:
        frames[i, 5:12, 10:18] = 220.0
    return np.clip(frames, 0, 255).astype(np.uint8)


class TestLearn:
    def test_mean_matches_scene(self):
        model = GaussianBackgroundModel().learn(_scene())
        assert model.is_fitted
        assert np.abs(model.mean - 100.0).max() < 6.0

    def test_variance_reflects_local_noise(self):
        noise_map = np.full((20, 30), 1.0)
        noise_map[:, 15:] = 6.0  # right half is noisy
        frames = _scene(noise_map=noise_map)
        model = GaussianBackgroundModel().learn(frames)
        assert model.var[:, 20:].mean() > model.var[:, :10].mean() * 2

    def test_learn_empty_rejected(self):
        with pytest.raises(PipelineError):
            GaussianBackgroundModel().learn(np.zeros((0, 4, 4)))

    @given(stack=frame_stacks())
    @settings(max_examples=300, deadline=None)
    def test_mean_and_var_equal_the_stacked_formula(self, stack):
        """The median and MAD taken in place over the pixel-major sample
        equal this formula over the frame-major stack, bit for bit."""
        frames, count = stack
        # inf - inf and 1e30 ** 2, on both sides
        with np.errstate(invalid="ignore", over="ignore"):
            sample = reference_sample(frames, count)
            mean = np.median(sample, axis=0)
            mad = np.median(np.abs(sample - mean), axis=0)
            std = np.maximum(1.4826 * mad, GaussianBackgroundModel.MIN_STD)
            var = (std * std).astype(np.float32)
            model = GaussianBackgroundModel(bootstrap_frames=count).learn(
                frames)
        assert_bits_equal(model.mean, mean)
        assert_bits_equal(model.var, var)


class TestSubtract:
    def test_object_detected(self):
        frames = _scene(object_frames=[29])
        model = GaussianBackgroundModel().learn(frames[:25])
        mask = model.subtract(frames[29])
        assert mask[8, 14]
        assert not mask[1, 1]

    def test_adaptive_threshold_suppresses_noisy_region(self):
        """Noise spikes in a noisy region must not fire; the same
        amplitude in a quiet region must."""
        noise_map = np.full((20, 30), 1.0)
        noise_map[:, 15:] = 6.0
        frames = _scene(noise_map=noise_map)
        model = GaussianBackgroundModel(k_sigma=3.5).learn(frames)
        probe = np.full((20, 30), 100.0)
        probe += 14.0  # moderate deviation everywhere
        mask = model.subtract(probe)
        quiet_rate = mask[:, :10].mean()
        noisy_rate = mask[:, 20:].mean()
        assert quiet_rate > 0.9   # 14 gray >> 3.5 sigma in quiet half
        # Mostly within tolerance in the noisy half (per-pixel sigma is
        # itself estimated from a small sample, so allow some leakage).
        assert noisy_rate < 0.25
        assert quiet_rate > noisy_rate * 3

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GaussianBackgroundModel().subtract(np.zeros((4, 4)))

    def test_shape_mismatch(self):
        model = GaussianBackgroundModel().learn(_scene())
        with pytest.raises(PipelineError):
            model.subtract(np.zeros((4, 4)))


class TestUpdate:
    def test_mean_tracks_slow_drift(self):
        frames = _scene()
        model = GaussianBackgroundModel(learning_rate=0.05).learn(frames)
        drifted = np.full((20, 30), 115.0)
        for _ in range(200):
            model.update(drifted, np.zeros((20, 30), dtype=bool))
        assert np.abs(model.mean - 115.0).max() < 2.0

    def test_foreground_pixels_frozen(self):
        frames = _scene()
        model = GaussianBackgroundModel(learning_rate=0.5).learn(frames)
        before = model.mean.copy()
        bright = np.full((20, 30), 250.0)
        model.update(bright, np.ones((20, 30), dtype=bool))
        assert np.array_equal(model.mean, before)

    def test_variance_floor_respected(self):
        frames = _scene()
        model = GaussianBackgroundModel(learning_rate=0.2).learn(frames)
        flat = np.full((20, 30), 100.0)
        for _ in range(100):
            model.update(flat, np.zeros((20, 30), dtype=bool))
        assert model.var.min() >= GaussianBackgroundModel.MIN_STD ** 2 - 1e-6


class TestPipelineIntegration:
    def test_pipeline_accepts_gaussian_model(self, small_tunnel):
        from repro.vision import VideoClip

        clip = VideoClip.from_simulation(small_tunnel, render_seed=4)
        pipeline = SegmentationPipeline(
            background=GaussianBackgroundModel(), use_spcpe=False)
        detections = pipeline.process(clip)
        assert len(detections) == small_tunnel.n_frames
        assert any(len(d) > 0 for d in detections)

    @pytest.mark.parametrize("kwargs", [
        {"k_sigma": 0.0},
        {"learning_rate": 2.0},
        {"bootstrap_frames": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(Exception):
            GaussianBackgroundModel(**kwargs)
