"""Tests for blob extraction (connected components, MBR, centroid)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.errors import PipelineError
from repro.vision import clean_mask, extract_blobs


def _scipy_clean(mask, open_iterations, close_iterations):
    """Reference for ``clean_mask``: scipy's opening, then its closing,
    with the default cross structure; a count of 0 skips the step."""
    out = mask
    if open_iterations:
        out = ndimage.binary_opening(out, iterations=open_iterations)
    if close_iterations:
        out = ndimage.binary_closing(out, iterations=close_iterations)
    return out


def _mask_with_rects(rects, h=40, w=60):
    mask = np.zeros((h, w), dtype=bool)
    for y0, y1, x0, x1 in rects:
        mask[y0:y1, x0:x1] = True
    return mask


class TestExtractBlobs:
    def test_single_rect(self):
        mask = _mask_with_rects([(10, 20, 5, 25)])
        blobs = extract_blobs(mask, min_area=10)
        assert len(blobs) == 1
        blob = blobs[0]
        assert blob.bbox == (5, 10, 25, 20)
        assert blob.area == 10 * 20
        assert blob.cx == pytest.approx((5 + 24) / 2)
        assert blob.cy == pytest.approx((10 + 19) / 2)
        assert (blob.width, blob.height) == (20, 10)

    def test_two_separate_rects(self):
        mask = _mask_with_rects([(5, 10, 5, 10), (25, 35, 30, 50)])
        blobs = extract_blobs(mask, min_area=5)
        assert len(blobs) == 2

    def test_min_area_filters_speckle(self):
        mask = _mask_with_rects([(5, 6, 5, 6), (20, 30, 20, 40)])
        blobs = extract_blobs(mask, min_area=10)
        assert len(blobs) == 1
        assert blobs[0].area == 200

    def test_max_area_filters_floods(self):
        mask = _mask_with_rects([(0, 40, 0, 60), ])
        assert extract_blobs(mask, min_area=5, max_area=100) == []

    def test_mean_intensity_from_frame(self):
        mask = _mask_with_rects([(5, 10, 5, 10)])
        frame = np.zeros((40, 60))
        frame[5:10, 5:10] = 200.0
        blobs = extract_blobs(mask, frame, min_area=5)
        assert blobs[0].mean_intensity == pytest.approx(200.0)

    def test_intensity_nan_without_frame(self):
        mask = _mask_with_rects([(5, 10, 5, 10)])
        blobs = extract_blobs(mask, min_area=5)
        assert np.isnan(blobs[0].mean_intensity)

    def test_empty_mask(self):
        assert extract_blobs(np.zeros((10, 10), dtype=bool)) == []

    def test_rejects_non_2d(self):
        with pytest.raises(PipelineError):
            extract_blobs(np.zeros((2, 3, 4), dtype=bool))

    def test_mask_slice_cuts_the_component(self):
        mask = _mask_with_rects([(10, 20, 5, 25)])
        blob = extract_blobs(mask, min_area=5)[0]
        rows, cols = blob.mask_slice()
        assert mask[rows, cols].all()

    @given(
        y0=st.integers(0, 20), x0=st.integers(0, 30),
        dh=st.integers(3, 15), dw=st.integers(3, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_centroid_always_inside_bbox(self, y0, x0, dh, dw):
        mask = _mask_with_rects([(y0, y0 + dh, x0, x0 + dw)])
        blobs = extract_blobs(mask, min_area=1)
        assert len(blobs) == 1
        b = blobs[0]
        assert b.x0 <= b.cx <= b.x1
        assert b.y0 <= b.cy <= b.y1
        assert b.area == dh * dw


class TestCleanMask:
    def test_opening_removes_speckle(self):
        mask = _mask_with_rects([(20, 30, 20, 40)])
        mask[2, 2] = True  # single-pixel noise
        cleaned = clean_mask(mask)
        assert not cleaned[2, 2]
        assert cleaned[25, 30]

    def test_closing_fills_holes(self):
        mask = _mask_with_rects([(20, 30, 20, 40)])
        mask[25, 30] = False  # one-pixel hole
        cleaned = clean_mask(mask)
        assert cleaned[25, 30]

    def test_no_ops_when_disabled(self):
        mask = _mask_with_rects([(20, 30, 20, 40)])
        mask[2, 2] = True
        out = clean_mask(mask, open_iterations=0, close_iterations=0)
        assert np.array_equal(out, mask)

    def test_rejects_non_2d(self):
        with pytest.raises(PipelineError):
            clean_mask(np.zeros(5, dtype=bool))

    @pytest.mark.parametrize("count", [-1, 1.5, "1", None])
    @pytest.mark.parametrize("name", ["open_iterations", "close_iterations"])
    def test_rejects_negative_or_non_integer_counts(self, name, count):
        with pytest.raises(PipelineError, match=name):
            clean_mask(np.ones((8, 8), dtype=bool), **{name: count})

    @given(
        height=st.integers(1, 240), width=st.integers(1, 320),
        density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
        open_iterations=st.integers(0, 2),
        close_iterations=st.integers(0, 2),
    )
    @example(height=1, width=1, density=1.0, seed=0, open_iterations=1,
             close_iterations=1)
    @example(height=240, width=320, density=0.5, seed=1, open_iterations=2,
             close_iterations=2)
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_opening_then_closing(
            self, height, width, density, seed, open_iterations,
            close_iterations):
        rng = np.random.default_rng(seed)
        mask = rng.random((height, width)) < density
        # Foreground touches every border: a run of pixels on each edge.
        for edge in (mask[0], mask[-1], mask[:, 0], mask[:, -1]):
            lo = int(rng.integers(len(edge)))
            edge[lo:int(rng.integers(lo, len(edge))) + 1] = True
        expected = _scipy_clean(mask, open_iterations, close_iterations)
        got = clean_mask(mask, open_iterations=open_iterations,
                         close_iterations=close_iterations)
        assert got.dtype == bool and got.shape == mask.shape
        assert np.array_equal(got, expected)
