"""Frame-to-detections pipeline: background subtraction + SPCPE + blobs.

This is the "semantic object extraction" stage of the paper's system
overview (Figure 6): every frame yields a list of vehicle candidates, each
with an MBR and a centroid, which the tracker then links over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError
from repro.vision.background import BackgroundModel, bootstrap_indices
from repro.vision.blobs import Blob, clean_mask, extract_blobs
from repro.vision.frames import READ_AHEAD, FrameReader
from repro.vision.spcpe import SPCPE

__all__ = ["Detection", "SegmentationPipeline"]


@dataclass(frozen=True)
class Detection:
    """One vehicle candidate in one frame."""

    frame: int
    blob: Blob

    @property
    def centroid(self) -> np.ndarray:
        return self.blob.centroid


class SegmentationPipeline:
    """Turn a clip into per-frame vehicle detections.

    Parameters
    ----------
    background:
        The background model; a default one is built if omitted.
    use_spcpe:
        Refine each blob's mask with SPCPE on an expanded patch around its
        MBR (slower, slightly better boxes on soft edges).
    min_area / max_area:
        Blob size gates, in pixels.
    patch_margin:
        How many pixels of context around a blob SPCPE gets to see.
    """

    def __init__(
        self,
        *,
        background: BackgroundModel | None = None,
        use_spcpe: bool = True,
        min_area: int = 25,
        max_area: int | None = 4000,
        patch_margin: int = 5,
    ) -> None:
        if min_area <= 0:
            raise PipelineError("min_area must be positive")
        self.background = background or BackgroundModel()
        self.spcpe = SPCPE() if use_spcpe else None
        self.min_area = int(min_area)
        self.max_area = max_area
        self.patch_margin = int(patch_margin)

    def _refine(self, frame: np.ndarray, mask: np.ndarray,
                blob: Blob) -> Blob:
        """Re-segment one blob with SPCPE; fall back to the original."""
        assert self.spcpe is not None
        height, width = frame.shape
        m = self.patch_margin
        y0, y1 = max(blob.y0 - m, 0), min(blob.y1 + m, height)
        x0, x1 = max(blob.x0 - m, 0), min(blob.x1 + m, width)
        patch = np.asarray(frame[y0:y1, x0:x1], dtype=float)
        coarse = mask[y0:y1, x0:x1]
        refined = self.spcpe.refine_mask(patch, coarse)
        candidates = extract_blobs(refined, patch, min_area=self.min_area,
                                   max_area=self.max_area)
        if not candidates:
            return blob
        best = max(candidates, key=lambda b: b.area)
        return Blob(
            cx=best.cx + x0,
            cy=best.cy + y0,
            x0=best.x0 + x0,
            y0=best.y0 + y0,
            x1=best.x1 + x0,
            y1=best.y1 + y0,
            area=best.area,
            mean_intensity=best.mean_intensity,
        )

    def detect(self, frame_index: int, frame: np.ndarray) -> list[Detection]:
        """Detections for a single frame (updates the background model)."""
        mask = self.background.apply(frame)
        mask = clean_mask(mask)
        blobs = extract_blobs(mask, frame, min_area=self.min_area,
                              max_area=self.max_area)
        if self.spcpe is not None:
            blobs = [self._refine(frame, mask, b) for b in blobs]
        return [Detection(frame=frame_index, blob=b) for b in blobs]

    def process(self, clip) -> list[list[Detection]]:
        """Process a whole clip; returns one detection list per frame.

        ``clip`` is a :class:`~repro.vision.frames.VideoClip` or any
        sequence of frames.  The frames are read through
        :meth:`open_reader` with a window of
        :data:`~repro.vision.frames.READ_AHEAD`: they render ahead on a
        helper thread while this one segments, the helper is joined
        before this returns, and each frame renders once.
        """
        with self.open_reader(clip) as frames:
            return [self.detect(i, frame) for i, frame in enumerate(frames)]

    def open_reader(self, clip, lo: int = 0, *,
                    window: int = READ_AHEAD) -> FrameReader:
        """A :class:`~repro.vision.frames.FrameReader` over frames
        ``[lo, len(clip))``, with the background learned first.

        If the model is not fitted, the background is bootstrapped from
        a sample of the whole clip, rendered through a short-lived reader
        of its own, and the new reader hands out the sampled frames at or
        after ``lo`` instead of rendering them again; the others are
        dropped before this returns.  Feeding the reader's frames to
        :meth:`detect` in order reproduces :meth:`process` on any split,
        because the bootstrap samples the whole clip and the running
        average then sees the frames in global order.  ``window`` is the
        reader's render-ahead window.  The caller closes the reader
        (a ``with`` block, or ``close()`` in a ``finally``); nothing of
        it is stored on this pipeline, which stays picklable.
        """
        if not 0 <= lo <= len(clip):
            raise PipelineError(
                f"frame {lo} outside clip of {len(clip)} frames")
        rendered = {}
        if not self.background.is_fitted:
            indices = bootstrap_indices(len(clip),
                                        self.background.bootstrap_frames)
            with FrameReader(clip, indices) as sampled:
                sample = list(sampled)
            self.background.learn(sample)
            rendered = {i: frame for i, frame in zip(indices, sample)
                        if i >= lo}
        return FrameReader(clip, range(lo, len(clip)), rendered, window)
