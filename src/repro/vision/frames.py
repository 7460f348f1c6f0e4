"""Video clip abstraction consumed by the vision pipeline.

A :class:`VideoClip` is a sequence of grayscale uint8 frames plus the
metadata the database layer stores (clip id, fps, location, camera).
Frames can be held eagerly (an ``(n, h, w)`` array) or produced lazily by a
renderer, which matters for the paper-scale 2500-frame tunnel clip.
A :class:`FrameReader` reads frames in order while a helper thread
renders the next ones, so rendering overlaps the caller's work.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import PipelineError

__all__ = ["VideoClip", "FrameReader", "READ_AHEAD"]

#: A batch read's window: how many frames past the caller's position may
#: be rendered ahead.  Two keep the helper busy while the caller segments
#: a frame, and bound the rendered frames waiting in memory to two.
READ_AHEAD = 2


class VideoClip:
    """A grayscale video clip: indexed frame access plus metadata."""

    def __init__(
        self,
        clip_id: str,
        n_frames: int,
        frame_getter: Callable[[int], np.ndarray],
        *,
        fps: float = 25.0,
        metadata: dict | None = None,
    ) -> None:
        """``frame_getter(i)`` returns frame ``i``.  It must be a pure
        function of ``i`` and safe to call from another thread:
        :class:`FrameReader` renders frames ahead on a helper thread, in
        any order, and counts on the same index giving the same frame
        whichever thread asks.  Both built-in getters qualify:
        :meth:`from_array` indexes a fixed array, and
        :meth:`from_simulation` seeds each frame's noise from
        ``(render_seed, i)``.
        """
        if n_frames <= 0:
            raise PipelineError(f"clip {clip_id!r} has no frames")
        if fps <= 0:
            raise PipelineError(f"clip {clip_id!r} has non-positive fps")
        self.clip_id = str(clip_id)
        self.n_frames = int(n_frames)
        self.fps = float(fps)
        self.metadata = dict(metadata or {})
        self._getter = frame_getter
        self._shape: tuple[int, int] | None = None

    @classmethod
    def from_array(cls, clip_id: str, frames: np.ndarray,
                   **kwargs) -> "VideoClip":
        """Wrap an eager ``(n, h, w)`` uint8 array."""
        frames = np.asarray(frames)
        if frames.ndim != 3:
            raise PipelineError(
                f"expected (n_frames, h, w) array, got shape {frames.shape}"
            )
        return cls(clip_id, len(frames), lambda i: frames[i], **kwargs)

    @classmethod
    def from_simulation(cls, result, *,
                        noise_sigma: "float | np.ndarray" = 2.0,
                        render_seed: int = 7, fps: float = 25.0,
                        camera=None,
                        illumination_drift: float = 0.0) -> "VideoClip":
        """Render a :class:`~repro.sim.world.SimulationResult` lazily.

        Each frame is rendered on demand with a per-frame-seeded noise
        stream, so random access stays deterministic without holding the
        whole clip in memory.  ``camera`` (a
        :class:`~repro.sim.camera.CameraModel`) shoots the scenario
        through a projective camera instead of the identity view.
        """
        from repro.sim.render import Renderer

        base = Renderer(result, noise_sigma=0.0, flicker_sigma=0.0,
                        camera=camera,
                        illumination_drift=illumination_drift)

        sigma = np.asarray(noise_sigma, dtype=float)
        noisy = bool(np.any(sigma > 0))

        def get(i: int) -> np.ndarray:
            img = base.clean_frame(i)  # a fresh array: changed in place
            if noisy:
                rng = np.random.default_rng((render_seed, i))
                noise = rng.standard_normal(img.shape)
                noise *= sigma
                img += noise
            return np.clip(img, 0, 255, out=img).astype(np.uint8)

        metadata = dict(result.metadata)
        metadata.setdefault("width", result.width)
        metadata.setdefault("height", result.height)
        if camera is not None:
            metadata["camera_matrix"] = camera.matrix.tolist()
        return cls(result.name, result.n_frames, get, fps=fps,
                   metadata=metadata)

    def get(self, index: int) -> np.ndarray:
        """Return frame ``index`` as a uint8 array."""
        if not 0 <= index < self.n_frames:
            raise IndexError(
                f"frame {index} out of range [0, {self.n_frames})"
            )
        frame = np.asarray(self._getter(index))
        if frame.ndim != 2:
            raise PipelineError(
                f"frame {index} of clip {self.clip_id!r} is not grayscale "
                f"2-D (shape {frame.shape})"
            )
        if self._shape is None:
            self._shape = frame.shape
        elif frame.shape != self._shape:
            raise PipelineError(
                f"frame {index} shape {frame.shape} differs from earlier "
                f"frames {self._shape}"
            )
        return frame

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width) of the frames."""
        if self._shape is None:
            self.get(0)
        assert self._shape is not None
        return self._shape

    def __len__(self) -> int:
        return self.n_frames

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self.n_frames):
            yield self.get(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VideoClip(id={self.clip_id!r}, n_frames={self.n_frames}, "
                f"fps={self.fps})")


class FrameReader:
    """The frames at ``indices`` of ``frames``, in order, rendered ahead.

    ``frames`` is a :class:`VideoClip` or any indexable sequence of
    frames; a sequence is read in place, on the caller's thread.  For a
    clip, the caller renders the first frame itself, which fixes the
    clip's frame shape before another thread reads a frame.  Then one
    helper thread renders up to ``window`` frames past the caller's
    position, and a caller that would wait for the helper renders the
    next frame nobody has started instead.  Every frame is
    ``clip.get(i)``, a pure function of ``i`` (see :class:`VideoClip`),
    so the frames are the same whichever thread renders them and in
    whatever order.

    ``window`` bounds the rendered frames waiting for the caller.  A
    batch read keeps :data:`READ_AHEAD`; a segment stream passes its
    segment length, so the helper renders the next segment while the
    caller is away between segments.

    ``rendered`` maps indices to frames already rendered from
    ``frames``.  The reader hands such a frame out in place of rendering
    it again, and removes it from the dict as it does, so the dict holds
    no frame past its use; closing the reader empties it.

    The helper renders under a copy of the :mod:`contextvars` context
    the reader was made in, so a render's telemetry events carry that
    query context.  A frame that failed to render raises its exception
    when the caller reaches it, and closes the reader.  :meth:`close`
    stops the helper and joins it; iterating to the end or leaving a
    ``with`` block closes the reader, so the helper lives for one read
    only.
    """

    #: Name of the helper thread (tests look for leftover helpers).
    THREAD_NAME = "repro-frame-reader"

    def __init__(self, frames, indices: Iterable[int],
                 rendered: dict[int, np.ndarray] | None = None,
                 window: int = READ_AHEAD) -> None:
        if window < 1:
            raise PipelineError(f"window must be >= 1, got {window}")
        self._window = int(window)
        self._ahead = isinstance(frames, VideoClip)
        self._get = frames.get if self._ahead else frames.__getitem__
        self._rendered = {} if rendered is None else rendered
        self._indices = [int(i) for i in indices]
        self._next = 0       # the position the caller reads next
        self._started = 0    # every position below it is taken by a thread
        self._done: dict[int, tuple] = {}  # position -> (frame, error)
        self._closed = False
        self._cond = threading.Condition(threading.Lock())
        self._context = contextvars.copy_context()
        self._helper: threading.Thread | None = None

    def __enter__(self) -> "FrameReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> "FrameReader":
        return self

    def __next__(self) -> np.ndarray:
        pos = self._next
        if self._closed or pos >= len(self._indices):
            self.close()
            raise StopIteration
        try:
            frame = self._take(pos)
        except BaseException:
            self.close()
            raise
        if (self._ahead and self._helper is None
                and pos + 1 < len(self._indices)):
            self._helper = threading.Thread(
                target=self._context.run, args=(self._run_ahead,),
                name=self.THREAD_NAME, daemon=True)
            self._helper.start()
        return frame

    def _read(self, index: int) -> np.ndarray:
        """Frame ``index``: handed over from ``rendered``, or rendered."""
        frame = self._rendered.pop(index, None)
        return self._get(index) if frame is None else frame

    def _take(self, pos: int) -> np.ndarray:
        """Frame ``pos``: from the helper, or rendered on this thread."""
        end = len(self._indices)
        while True:
            with self._cond:
                result = self._done.pop(pos, None)
                if result is not None or self._started <= pos:
                    if result is None:
                        self._started = pos + 1
                    self._next = pos + 1
                    self._cond.notify()
                    break
                # The helper is rendering ``pos``: render a later frame
                # meanwhile, or wait when the window is full.
                spare = self._started
                if spare >= min(end, self._next + self._window):
                    self._cond.wait()
                    continue
                self._started = spare + 1
            try:
                stolen = (self._read(self._indices[spare]), None)
            except Exception as error:  # raised when the caller reaches it
                stolen = (None, error)
            with self._cond:
                self._done[spare] = stolen
        if result is None:
            return self._read(self._indices[pos])
        frame, error = result
        if error is not None:
            raise error
        return frame

    def _run_ahead(self) -> None:
        """Helper thread: render the next unstarted frame in the window."""
        end = len(self._indices)
        while True:
            with self._cond:
                while (not self._closed and self._started < end
                       and self._started >= self._next + self._window):
                    self._cond.wait()
                if self._closed or self._started >= end:
                    return
                pos = self._started
                self._started = pos + 1
            try:
                result = (self._read(self._indices[pos]), None)
            except BaseException as error:
                # Handed over, not swallowed: the caller raises it at
                # ``pos``, and would wait forever if this thread died.
                result = (None, error)
            with self._cond:
                if not self._closed:
                    self._done[pos] = result
                self._cond.notify()

    def close(self) -> None:
        """Stop the helper thread and join it; safe to call twice."""
        with self._cond:
            self._closed = True
            self._done.clear()
            self._rendered.clear()
            self._cond.notify_all()
        helper, self._helper = self._helper, None
        # A stream dropped unclosed may be collected on its own helper
        # thread, which then stops at its next check, unjoined.
        if helper is not None and helper is not threading.current_thread():
            helper.join()
