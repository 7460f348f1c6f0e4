"""Background learning and subtraction (paper Section 3.1).

The paper enhances SPCPE with "a background learning and subtraction
method" to identify vehicles in traffic video.  This module implements the
standard recipe: bootstrap the background as a per-pixel median over an
initial frame sample, then keep it fresh with a selective running average
that only updates pixels currently classified as background (so stopped
vehicles bleed into the background slowly, moving ones never do).
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError, PipelineError
from repro.utils import check_in_range, check_positive
from repro.vision.frames import FrameReader

__all__ = ["BackgroundModel", "GaussianBackgroundModel",
           "bootstrap_indices"]


def bootstrap_indices(n_frames: int, count: int) -> list[int]:
    """The frame indices a median bootstrap samples: ``count`` spread
    uniformly over ``n_frames`` frames (all of them, if fewer)."""
    if n_frames == 0:
        raise PipelineError("cannot learn a background from 0 frames")
    spread = np.linspace(0, n_frames - 1, min(count, n_frames)).round()
    return spread.astype(int).tolist()


def _bootstrap_sample(clip, count: int) -> tuple[np.ndarray, tuple]:
    """The frames at :func:`bootstrap_indices`, pixel-major, as float32.

    Returns the sample, whose row ``p`` holds pixel ``p`` of every sampled
    frame, and the frame shape.  ``clip`` is a
    :class:`~repro.vision.frames.VideoClip` or any indexable frames.  A
    clip's sample renders on this thread and one helper thread
    (:class:`~repro.vision.frames.FrameReader`), joined before this
    returns.
    """
    indices = bootstrap_indices(len(clip), count)
    sample = shape = None
    with FrameReader(clip, indices) as frames:
        for j, frame in enumerate(frames):
            frame = np.asarray(frame)
            if sample is None:
                shape = frame.shape
                sample = np.empty((frame.size, len(indices)), np.float32)
            elif frame.shape != shape:
                raise PipelineError(
                    f"frame {indices[j]} shape {frame.shape} differs from "
                    f"earlier frames {shape}")
            sample[:, j] = frame.reshape(-1)
    return sample, shape


def _median(sample: np.ndarray) -> np.ndarray:
    """``np.median(sample, axis=1)`` of a pixel-major float32 sample,
    bit for bit, partitioning ``sample`` in place.

    ``np.median`` also partitions each row's largest value to its end, to
    find NaNs; that second order statistic costs several times the
    first.  A NaN sorts after every number, so a row holding one holds
    it at or after the upper middle position, and only those values are
    searched.
    """
    k = sample.shape[1]
    lo, hi = (k - 1) // 2, k // 2   # equal for odd k
    sample.partition(list(range(lo, hi + 1)), axis=1)
    median = np.mean(sample[:, lo:hi + 1], axis=1)
    np.copyto(median, np.nan, where=np.isnan(sample[:, hi:]).any(axis=1))
    return median


class BackgroundModel:
    """Median-bootstrapped, selectively-updated background estimator.

    Parameters
    ----------
    threshold:
        Absolute gray-level difference above which a pixel is foreground.
    learning_rate:
        Blend factor of the selective running average (0 freezes the
        background after bootstrap).
    bootstrap_frames:
        How many frames :meth:`learn` samples for the median bootstrap.
    """

    def __init__(self, *, threshold: float = 18.0, learning_rate: float = 0.02,
                 bootstrap_frames: int = 25) -> None:
        check_positive("threshold", threshold)
        check_in_range("learning_rate", learning_rate, 0.0, 1.0)
        check_positive("bootstrap_frames", bootstrap_frames)
        self.threshold = float(threshold)
        self.learning_rate = float(learning_rate)
        self.bootstrap_frames = int(bootstrap_frames)
        self.background: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.background is not None

    def learn(self, clip) -> "BackgroundModel":
        """Bootstrap the background from a clip (or any indexable frames).

        Takes a uniform sample of ``bootstrap_frames`` frames and uses the
        per-pixel median, which is robust to vehicles passing through as
        long as no pixel is occupied in more than half the sample.
        """
        sample, shape = _bootstrap_sample(clip, self.bootstrap_frames)
        self.background = _median(sample).reshape(shape)
        return self

    def set_background(self, background: np.ndarray) -> "BackgroundModel":
        """Install an explicit background image (e.g. from a prior run)."""
        self.background = np.asarray(background, dtype=np.float32).copy()
        return self

    def subtract(self, frame: np.ndarray) -> np.ndarray:
        """Foreground mask of ``frame`` (bool array, True = foreground)."""
        if self.background is None:
            raise NotFittedError("call learn() or set_background() first")
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != self.background.shape:
            raise PipelineError(
                f"frame shape {frame.shape} does not match background "
                f"{self.background.shape}"
            )
        return np.abs(frame - self.background) > self.threshold

    def update(self, frame: np.ndarray, foreground: np.ndarray) -> None:
        """Selectively blend ``frame`` into the background.

        Only background pixels are updated, so moving vehicles never
        contaminate the model; a vehicle must stand still for roughly
        ``3 / learning_rate`` frames before it starts to disappear.
        """
        if self.background is None:
            raise NotFittedError("call learn() or set_background() first")
        if self.learning_rate == 0.0:
            return
        frame = np.asarray(frame, dtype=np.float32)
        rate = self.learning_rate
        blend = (1.0 - rate) * self.background + rate * frame
        self.background = np.where(foreground, self.background, blend)

    def apply(self, frame: np.ndarray, *, update: bool = True) -> np.ndarray:
        """Subtract and (optionally) update in one call; returns the mask."""
        mask = self.subtract(frame)
        if update:
            self.update(frame, mask)
        return mask


class GaussianBackgroundModel:
    """Per-pixel Gaussian background: adaptive, noise-aware thresholds.

    Instead of one global gray-level threshold, each pixel keeps a
    running mean and variance; a pixel is foreground when it deviates by
    more than ``k_sigma`` standard deviations.  Pixels under camera noise
    or flicker get wider tolerances automatically, quiet pixels stay
    sensitive — the classic single-Gaussian adaptive model.

    Shares the :class:`BackgroundModel` interface (``learn`` /
    ``subtract`` / ``update`` / ``apply`` / ``is_fitted``), so it drops
    into :class:`~repro.vision.pipeline.SegmentationPipeline` unchanged.
    """

    #: Lower bound on the per-pixel std, in gray levels: keeps freshly
    #: bootstrapped pixels from flagging quantization noise.
    MIN_STD = 1.5

    def __init__(self, *, k_sigma: float = 4.0, learning_rate: float = 0.02,
                 bootstrap_frames: int = 25) -> None:
        check_positive("k_sigma", k_sigma)
        check_in_range("learning_rate", learning_rate, 0.0, 1.0)
        check_positive("bootstrap_frames", bootstrap_frames)
        self.k_sigma = float(k_sigma)
        self.learning_rate = float(learning_rate)
        self.bootstrap_frames = int(bootstrap_frames)
        self.mean: np.ndarray | None = None
        self.var: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.mean is not None

    @property
    def background(self) -> np.ndarray | None:
        """Alias for the mean image (interface parity)."""
        return self.mean

    def learn(self, clip) -> "GaussianBackgroundModel":
        """Bootstrap mean and variance from a uniform frame sample."""
        sample, shape = _bootstrap_sample(clip, self.bootstrap_frames)
        # Median/MAD estimators: robust to vehicles inside the sample.
        mean = _median(sample)
        np.abs(np.subtract(sample, mean[:, None], out=sample), out=sample)
        std = np.maximum(1.4826 * _median(sample), self.MIN_STD)
        self.mean = mean.reshape(shape)
        self.var = (std * std).astype(np.float32).reshape(shape)
        return self

    def _check(self, frame: np.ndarray) -> np.ndarray:
        if self.mean is None or self.var is None:
            raise NotFittedError("call learn() first")
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != self.mean.shape:
            raise PipelineError(
                f"frame shape {frame.shape} does not match background "
                f"{self.mean.shape}"
            )
        return frame

    def subtract(self, frame: np.ndarray) -> np.ndarray:
        """Foreground where |I - mean| > k_sigma * std."""
        frame = self._check(frame)
        dev2 = (frame - self.mean) ** 2
        return dev2 > (self.k_sigma ** 2) * self.var

    def update(self, frame: np.ndarray, foreground: np.ndarray) -> None:
        """Selective EW update of mean and variance (background only)."""
        frame = self._check(frame)
        if self.learning_rate == 0.0:
            return
        rate = self.learning_rate
        diff = frame - self.mean
        new_mean = self.mean + rate * diff
        new_var = (1.0 - rate) * (self.var + rate * diff * diff)
        keep = foreground
        self.mean = np.where(keep, self.mean, new_mean)
        self.var = np.maximum(
            np.where(keep, self.var, new_var), self.MIN_STD ** 2)

    def apply(self, frame: np.ndarray, *, update: bool = True) -> np.ndarray:
        mask = self.subtract(frame)
        if update:
            self.update(frame, mask)
        return mask
