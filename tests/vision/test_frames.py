"""Tests for the VideoClip abstraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PipelineError
from repro.sim.camera import CameraModel
from repro.sim.render import Renderer
from repro.vision import VideoClip


def _toy_frames(n=5, h=8, w=10):
    rng = np.random.default_rng(0)
    return rng.integers(0, 255, size=(n, h, w), dtype=np.uint8)


class TestFromArray:
    def test_basic_access(self):
        frames = _toy_frames()
        clip = VideoClip.from_array("c1", frames)
        assert len(clip) == 5
        assert clip.shape == (8, 10)
        assert np.array_equal(clip.get(2), frames[2])

    def test_iteration_order(self):
        frames = _toy_frames()
        clip = VideoClip.from_array("c1", frames)
        for i, frame in enumerate(clip):
            assert np.array_equal(frame, frames[i])

    def test_out_of_range_raises(self):
        clip = VideoClip.from_array("c1", _toy_frames())
        with pytest.raises(IndexError):
            clip.get(5)
        with pytest.raises(IndexError):
            clip.get(-1)

    def test_rejects_non_3d(self):
        with pytest.raises(PipelineError):
            VideoClip.from_array("c1", np.zeros((5, 5)))

    def test_rejects_zero_frames(self):
        with pytest.raises(PipelineError):
            VideoClip("c1", 0, lambda i: np.zeros((2, 2)))

    def test_rejects_bad_fps(self):
        with pytest.raises(PipelineError):
            VideoClip.from_array("c1", _toy_frames(), fps=0.0)

    def test_inconsistent_frame_shapes_detected(self):
        shapes = {0: np.zeros((4, 4), dtype=np.uint8),
                  1: np.zeros((5, 5), dtype=np.uint8)}
        clip = VideoClip("c1", 2, lambda i: shapes[i])
        clip.get(0)
        with pytest.raises(PipelineError, match="differs"):
            clip.get(1)


class TestFromSimulation:
    def test_lazy_render_matches_scale(self, small_tunnel):
        clip = VideoClip.from_simulation(small_tunnel)
        assert len(clip) == small_tunnel.n_frames
        assert clip.shape == (small_tunnel.height, small_tunnel.width)
        assert clip.get(0).dtype == np.uint8

    def test_random_access_is_deterministic(self, small_tunnel):
        clip = VideoClip.from_simulation(small_tunnel, render_seed=9)
        a = clip.get(40)
        b = clip.get(40)
        assert np.array_equal(a, b)

    def test_metadata_carries_scenario(self, small_tunnel):
        clip = VideoClip.from_simulation(small_tunnel)
        assert clip.metadata["scenario"] == "tunnel"
        assert clip.metadata["width"] == small_tunnel.width


def _reference_getter(result, *, noise_sigma, render_seed, camera=None,
                      illumination_drift=0.0):
    """Reference frame getter: scaled ``normal(0, 1)`` noise added to the
    clean frame, then clipped into a new array."""
    base = Renderer(result, noise_sigma=0.0, flicker_sigma=0.0,
                    camera=camera, illumination_drift=illumination_drift)
    sigma = np.asarray(noise_sigma, dtype=float)

    def get(i):
        rng = np.random.default_rng((render_seed, i))
        img = base.clean_frame(i)
        if np.any(sigma > 0):
            img += rng.normal(0.0, 1.0, size=img.shape) * sigma
        return np.clip(img, 0, 255).astype(np.uint8)
    return get


def _sigma_map(result):
    """Per-pixel noise: 0 on the left third, 1-60 elsewhere."""
    sigma = np.random.default_rng(1).uniform(
        1.0, 60.0, (result.height, result.width))
    sigma[:, :result.width // 3] = 0.0
    return sigma


RENDER_CASES = {
    "scalar_sigma": {"noise_sigma": 2.0},
    "clipping_sigma": {"noise_sigma": 90.0},
    "sigma_map": {"noise_sigma": _sigma_map},
    "zero_sigma": {"noise_sigma": 0.0},
    "illumination_drift": {"noise_sigma": 2.0, "illumination_drift": 0.4},
    "camera": {"noise_sigma": 2.0, "camera": CameraModel.tilted()},
}


class TestFromSimulationPixels:
    """In-place noise gives the reference getter's frames, bit for bit."""

    @pytest.mark.parametrize("case", sorted(RENDER_CASES))
    @given(render_seed=st.integers(0, 2**31 - 1), index=st.integers(0, 499))
    @settings(max_examples=15, deadline=None)
    def test_frames_equal_the_reference(self, small_tunnel, case,
                                        render_seed, index):
        kwargs = dict(RENDER_CASES[case])
        if callable(kwargs["noise_sigma"]):
            kwargs["noise_sigma"] = kwargs["noise_sigma"](small_tunnel)
        clip = VideoClip.from_simulation(small_tunnel,
                                         render_seed=render_seed, **kwargs)
        expected = _reference_getter(small_tunnel, render_seed=render_seed,
                                     **kwargs)(index)
        got = clip.get(index)
        assert got.dtype == expected.dtype == np.uint8
        np.testing.assert_array_equal(got, expected)
