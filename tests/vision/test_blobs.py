"""Tests for blob extraction (connected components, MBR, centroid)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.errors import PipelineError
from repro.vision import (
    Blob,
    Detection,
    SegmentationPipeline,
    VideoClip,
    clean_mask,
    extract_blobs,
)


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


def _extract_blobs_reference(mask, frame, *, min_area, max_area):
    """Reference for ``extract_blobs``: labels the whole mask, and converts
    the whole frame to float for every blob kept."""
    labels, _ = ndimage.label(mask)
    blobs = []
    for index, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is None:
            continue
        component = labels[box] == index
        area = int(component.sum())
        if area < min_area or (max_area is not None and area > max_area):
            continue
        ys, xs = np.nonzero(component)
        y_off, x_off = box[0].start, box[1].start
        if frame is None:
            mean_intensity = float("nan")
        else:
            patch = np.asarray(frame, dtype=float)[box]
            mean_intensity = float(patch[component].mean())
        blobs.append(Blob(
            cx=float(xs.mean() + x_off), cy=float(ys.mean() + y_off),
            x0=int(x_off), y0=int(y_off), x1=int(box[1].stop),
            y1=int(box[0].stop), area=area,
            mean_intensity=mean_intensity))
    return blobs


def _comparable(blobs):
    """Blobs as field tuples with each field's type; a NaN intensity (which
    equals nothing) becomes None."""
    rows = []
    for blob in blobs:
        fields = dataclasses.astuple(blob)
        if np.isnan(blob.mean_intensity):
            fields = fields[:-1] + (None,)
        rows.append(tuple((type(f), f) for f in fields))
    return rows


@st.composite
def _masks(draw):
    """Masks up to 40 x 40: random, empty, all foreground, one pixel, or
    random with foreground runs on every border."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(
        ["random", "empty", "full", "pixel", "border"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros((height, width), dtype=bool)
    if kind in ("random", "border"):
        mask = rng.random((height, width)) < draw(st.floats(0.01, 0.9))
    elif kind == "full":
        mask[:] = True
    elif kind == "pixel":
        mask[rng.integers(height), rng.integers(width)] = True
    if kind == "border":
        for edge in (mask[0], mask[-1], mask[:, 0], mask[:, -1]):
            lo = int(rng.integers(len(edge)))
            edge[lo:int(rng.integers(lo, len(edge))) + 1] = True
    return mask


class TestForegroundBoxLabelling:
    """Labelling only the foreground's bounding box gives the blobs of
    labelling the whole mask, bit for bit and in the same order."""

    @given(mask=_masks(), frame_kind=st.sampled_from(
        [None, np.uint8, np.float64]), data=st.data())
    @example(mask=np.zeros((1, 1), dtype=bool), frame_kind=None,
             data=None)
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_mask_labelling(self, mask, frame_kind, data):
        frame = None
        if frame_kind is not None:
            rng = np.random.default_rng(int(mask.sum()))
            frame = (rng.integers(0, 256, mask.shape).astype(np.uint8)
                     if frame_kind is np.uint8
                     else rng.normal(100.0, 40.0, mask.shape))
        # Area gates at the areas components have: on a gate's edge, a
        # component is kept; one past it, dropped.
        areas = sorted(set(np.bincount(ndimage.label(mask)[0].ravel())[1:]
                           .tolist())) or [1]
        min_area, max_area = 1, None
        if data is not None:
            min_area = data.draw(st.sampled_from(areas)
                                 | st.sampled_from(areas).map(lambda a: a + 1)
                                 | st.integers(0, 3))
            max_area = data.draw(st.none() | st.sampled_from(areas)
                                 | st.sampled_from(areas).map(lambda a: a - 1))
        got = extract_blobs(mask, frame, min_area=min_area,
                            max_area=max_area)
        expected = _extract_blobs_reference(mask, frame, min_area=min_area,
                                            max_area=max_area)
        assert _comparable(got) == _comparable(expected)

    def test_every_component_across_the_frame(self):
        """Components at every corner and in the middle, so the box is the
        whole frame; and a box far from the origin."""
        mask = _mask_with_rects([(0, 3, 0, 3), (0, 2, 57, 60),
                                 (38, 40, 0, 4), (37, 40, 55, 60),
                                 (18, 22, 28, 33)])
        frame = np.arange(mask.size, dtype=float).reshape(mask.shape)
        for m in (mask, _mask_with_rects([(30, 35, 44, 50)])):
            got = extract_blobs(m, frame, min_area=1)
            assert got == _extract_blobs_reference(m, frame, min_area=1,
                                                   max_area=None)

    @pytest.mark.parametrize("frame_shape", [(20, 20), (5, 5), (10, 12),
                                             (10,), (10, 10, 1)])
    def test_rejects_frame_of_another_shape(self, frame_shape):
        """A larger frame would be read through the mask's boxes (its
        top-left corner), a smaller one would fail mid-way."""
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:8, 2:8] = True
        with pytest.raises(PipelineError) as info:
            extract_blobs(mask, np.zeros(frame_shape), min_area=1)
        assert str(frame_shape) in str(info.value)
        assert str(mask.shape) in str(info.value)


class TestFrameConversion:
    """Converting only a blob's own pixels (and, with SPCPE, only its
    patch) gives the Blobs of the whole-frame conversion, bit for bit."""

    @pytest.fixture(scope="class")
    def frames(self, small_intersection):
        clip = VideoClip.from_simulation(small_intersection, render_seed=2)
        return np.stack([clip.get(i) for i in range(120)])

    def test_blob_lists_equal_the_whole_frame_conversion(self, frames):
        pipeline = SegmentationPipeline(use_spcpe=False)
        pipeline.background.learn(frames)
        kept = 0
        for frame in frames[30:]:
            mask = clean_mask(pipeline.background.apply(frame))
            got = extract_blobs(mask, frame, min_area=25, max_area=4000)
            assert got == _extract_blobs_reference(
                mask, frame, min_area=25, max_area=4000)
            kept += len(got)
        assert kept > 50

    def test_spcpe_detections_equal_the_whole_frame_conversion(self, frames):
        new, old = (SegmentationPipeline(use_spcpe=True) for _ in range(2))
        new.background.learn(frames)
        old.background.learn(frames)
        refined = 0
        for i, frame in enumerate(frames[30:90], start=30):
            got = new.detect(i, frame)
            mask = clean_mask(old.background.apply(frame))
            blobs = _extract_blobs_reference(
                mask, frame, min_area=old.min_area, max_area=old.max_area)
            expected = [
                Detection(i, old._refine(np.asarray(frame, dtype=float),
                                         mask, b))
                for b in blobs]
            assert got == expected
            refined += len(got)
        assert refined > 20


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
