"""Tests for background learning and subtraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, PipelineError
from repro.vision import BackgroundModel


def _scene(n=30, h=20, w=30, object_frames=(), seed=0):
    """Static gray scene with an optional bright square in some frames."""
    rng = np.random.default_rng(seed)
    frames = np.full((n, h, w), 100.0) + rng.normal(0, 1.5, (n, h, w))
    for i in object_frames:
        frames[i, 5:12, 10:18] = 220.0
    return np.clip(frames, 0, 255).astype(np.uint8)


class TestLearn:
    def test_median_bootstrap_recovers_static_scene(self):
        frames = _scene()
        model = BackgroundModel().learn(frames)
        assert model.is_fitted
        assert np.abs(model.background - 100.0).max() < 6.0

    def test_bootstrap_robust_to_transient_objects(self):
        # Object present in under half of the sampled frames.
        frames = _scene(n=30, object_frames=range(0, 10))
        model = BackgroundModel(bootstrap_frames=30).learn(frames)
        assert abs(model.background[8, 14] - 100.0) < 10.0

    def test_learn_empty_rejected(self):
        with pytest.raises(PipelineError):
            BackgroundModel().learn(np.zeros((0, 4, 4)))


class TestSubtract:
    def test_object_pixels_flagged(self):
        frames = _scene(object_frames=[29])
        model = BackgroundModel().learn(frames[:25])
        mask = model.subtract(frames[29])
        assert mask[8, 14]
        assert not mask[1, 1]

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            BackgroundModel().subtract(np.zeros((4, 4)))

    def test_shape_mismatch_raises(self):
        model = BackgroundModel().learn(_scene())
        with pytest.raises(PipelineError):
            model.subtract(np.zeros((4, 4)))

    def test_threshold_controls_sensitivity(self):
        frames = _scene()
        strict = BackgroundModel(threshold=60.0).learn(frames)
        loose = BackgroundModel(threshold=3.0).learn(frames)
        noisy = frames[0].astype(float) + 10.0
        assert not strict.subtract(noisy).any()
        assert loose.subtract(noisy).mean() > 0.95


class TestUpdate:
    def test_stationary_object_absorbed_slowly(self):
        frames = _scene()
        model = BackgroundModel(learning_rate=0.1).learn(frames)
        still = frames[0].copy()
        still[5:12, 10:18] = 220
        # Feed the same parked object many times, updating everywhere
        # (simulate it being missed by the detector).
        for _ in range(200):
            model.update(still, np.zeros_like(still, dtype=bool))
        assert abs(model.background[8, 14] - 220.0) < 2.0

    def test_foreground_pixels_protected(self):
        frames = _scene()
        model = BackgroundModel(learning_rate=0.5).learn(frames)
        before = model.background.copy()
        moving = frames[0].copy()
        moving[5:12, 10:18] = 220
        mask = model.subtract(moving)
        model.update(moving, mask)
        assert abs(model.background[8, 14] - before[8, 14]) < 1e-6

    def test_zero_learning_rate_freezes(self):
        frames = _scene()
        model = BackgroundModel(learning_rate=0.0).learn(frames)
        before = model.background.copy()
        model.update(np.full_like(before, 250.0),
                     np.zeros_like(before, dtype=bool))
        assert np.array_equal(model.background, before)

    def test_apply_combines_subtract_and_update(self):
        frames = _scene(object_frames=[29])
        model = BackgroundModel().learn(frames[:25])
        mask = model.apply(frames[29])
        assert mask[8, 14]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0},
        {"learning_rate": -0.1},
        {"learning_rate": 1.5},
        {"bootstrap_frames": 0},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(Exception):
            BackgroundModel(**kwargs)


#: Float pixel values with ties, signed zeros and infinities.
_SPECIAL = [0.0, -0.0, 1.0, 2.5, -3.0, 255.0, 1e30, np.inf, -np.inf]


@st.composite
def frame_stacks(draw):
    """``(frames, bootstrap_frames)``: up to 12 frames of up to 8 x 8
    pixels, uint8 or float, the floats drawn from :data:`_SPECIAL`, a
    normal and NaN; the sample has odd or even size."""
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 12))
    shape = (n, draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    dtype = draw(st.sampled_from([np.uint8, np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype is np.uint8:
        high = draw(st.sampled_from([2, 256]))  # 2: many ties
        frames = rng.integers(0, high, shape).astype(np.uint8)
    else:
        frames = rng.choice(_SPECIAL, shape)
        normal = rng.random(shape) < draw(st.floats(0.0, 1.0))
        frames[normal] = rng.normal(100.0, 50.0, int(normal.sum()))
        frames[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] \
            = np.nan
        frames = frames.astype(dtype)
    if draw(st.booleans()):
        frames = list(frames)
    return frames, count


def reference_sample(frames, count):
    """Reference bootstrap sample: the sampled frames as one frame-major
    float32 stack."""
    n = len(frames)
    indices = np.linspace(0, n - 1, min(count, n)).round().astype(int)
    return np.stack([np.asarray(frames[i], dtype=np.float32)
                     for i in indices])


def assert_bits_equal(got, expected):
    """Same dtype and shape, NaN where ``expected`` is NaN, and every
    other value equal bit for bit (so -0.0 differs from 0.0)."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestBootstrapMedian:
    """The in-place median over the pixel-major sample equals
    ``np.median`` over the frame-major stack, bit for bit."""

    @given(stack=frame_stacks())
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median(self, stack):
        frames, count = stack
        with np.errstate(invalid="ignore"):  # inf + -inf, on both sides
            expected = np.median(reference_sample(frames, count), axis=0)
            got = BackgroundModel(bootstrap_frames=count).learn(
                frames).background
        assert_bits_equal(got, expected)

    def test_nan_sample_gives_nan(self):
        """A partition alone puts a number in the middle of
        [1, nan, 3, 4, 5]; np.median gives NaN."""
        frames = np.array([1, np.nan, 3, 4, 5],
                          dtype=np.float32).reshape(5, 1, 1)
        got = BackgroundModel(bootstrap_frames=5).learn(frames).background
        assert got.dtype == np.float32 and np.isnan(got[0, 0])

    def test_frames_of_another_shape_rejected(self):
        frames = [np.zeros((4, 6)), np.zeros((6, 4))]
        with pytest.raises(PipelineError, match="differs"):
            BackgroundModel().learn(frames)
