"""Blob extraction: foreground mask -> vehicle candidates.

Produces, per connected foreground component, the Minimal Bounding
Rectangle (MBR) and centroid the paper tracks (Figure 1: "the yellow
rectangular area is the MBR ... (x_centroid, y_centroid) ... used for
tracking the positions of vehicles across video frames").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.errors import PipelineError

__all__ = ["Blob", "clean_mask", "extract_blobs"]


@dataclass(frozen=True)
class Blob:
    """One connected foreground component.

    Coordinates are in pixel units; the bounding box is half-open
    ``[x0, x1) x [y0, y1)`` and the centroid is the foreground-pixel mean.
    """

    cx: float
    cy: float
    x0: int
    y0: int
    x1: int
    y1: int
    area: int
    mean_intensity: float

    @property
    def centroid(self) -> np.ndarray:
        return np.array([self.cx, self.cy])

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)

    def mask_slice(self) -> tuple[slice, slice]:
        """(row, col) slices of the MBR, for cutting patches."""
        return slice(self.y0, self.y1), slice(self.x0, self.x1)


def clean_mask(mask: np.ndarray, *, open_iterations: int = 1,
               close_iterations: int = 1) -> np.ndarray:
    """Morphological cleanup: opening kills speckle, closing fills holes.

    Equal to ``ndimage.binary_opening`` then ``ndimage.binary_closing``
    with their default cross-shaped structure and ``border_value=0``.
    Each erosion (dilation) is the AND (OR) of a pixel and its four
    neighbours, read as shifted slices of a False-padded copy of the
    mask, so pixels outside the frame count as background.  The slices
    are taken from the flattened copy, where the neighbours above and
    below are one padded row away; flat slices run several times faster
    than 2-D ones.  Opening's and closing's dilations run back to back.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PipelineError(f"mask must be 2-D, got shape {mask.shape}")
    for name, count in (("open_iterations", open_iterations),
                        ("close_iterations", close_iterations)):
        if not isinstance(count, (int, np.integer)) or count < 0:
            raise PipelineError(
                f"{name} must be a non-negative integer, got {count!r}")
    steps = ([np.logical_and] * open_iterations
             + [np.logical_or] * (open_iterations + close_iterations)
             + [np.logical_and] * close_iterations)
    height, width = mask.shape
    row = width + 2
    src, dst = np.zeros((2, height + 2, row), dtype=bool)
    src[1:-1, 1:-1] = mask
    lo, hi = row, (height + 1) * row  # the unpadded rows, flattened
    for op in steps:
        flat, out = src.ravel(), dst.ravel()[lo:hi]
        op(flat[lo - row:hi - row], flat[lo + row:hi + row], out=out)
        op(out, flat[lo - 1:hi - 1], out=out)
        op(out, flat[lo + 1:hi + 1], out=out)
        op(out, flat[lo:hi], out=out)
        dst[:, [0, -1]] = False  # a dilation spills into the side padding
        src, dst = dst, src
    return src[1:-1, 1:-1].copy()


def extract_blobs(mask: np.ndarray, frame: np.ndarray | None = None,
                  *, min_area: int = 20,
                  max_area: int | None = None) -> list[Blob]:
    """Connected components of ``mask`` as :class:`Blob` records.

    ``frame`` (if given, the mask's shape) supplies the mean intensity
    per blob; components outside [min_area, max_area] are discarded as
    noise / lighting artifacts.

    Only the bounding box of the foreground is labelled.  The blobs are
    those of labelling the whole mask, in the same order: a crop keeps
    every component whole, and ``ndimage.label`` numbers components in
    the raster order of their first pixels, which the crop keeps too.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PipelineError(f"mask must be 2-D, got shape {mask.shape}")
    if frame is not None:
        frame = np.asarray(frame)
        if frame.shape != mask.shape:
            raise PipelineError(
                f"frame shape {frame.shape} does not match mask shape "
                f"{mask.shape}")
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return []
    cols = np.flatnonzero(mask.any(axis=0))
    top, left = int(rows[0]), int(cols[0])
    labels, _ = ndimage.label(mask[top:rows[-1] + 1, left:cols[-1] + 1])
    blobs: list[Blob] = []
    for index, box in enumerate(ndimage.find_objects(labels), start=1):
        component = labels[box] == index
        area = int(component.sum())
        if area < min_area:
            continue
        if max_area is not None and area > max_area:
            continue
        ys, xs = np.nonzero(component)
        y0, x0 = box[0].start + top, box[1].start + left
        y1, x1 = box[0].stop + top, box[1].stop + left
        if frame is not None:
            pixels = np.asarray(frame[y0:y1, x0:x1][component], dtype=float)
            mean_intensity = float(pixels.mean())
        else:
            mean_intensity = float("nan")
        blobs.append(
            Blob(
                cx=float(xs.mean() + x0),
                cy=float(ys.mean() + y0),
                x0=x0,
                y0=y0,
                x1=x1,
                y1=y1,
                area=area,
                mean_intensity=mean_intensity,
            )
        )
    return blobs
