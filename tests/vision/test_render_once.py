"""A clip build renders each frame once, and keeps no frame past the read.

``SegmentationPipeline`` renders the background's bootstrap sample and
hands those frames to the reader it opens.  A batch build reads the
whole clip through one reader; a ``SegmentedRunner.stream()`` reads
every frame it computes through one reader that renders up to a segment
ahead.  The clip here counts its renders per index and keeps a weak
reference to every frame it returns, so a frame still held by a reader,
the pipeline or a streaming carry after a read shows as a live
reference.  As in ``test_frame_reader.py``, no helper thread may be
left running after a test.
"""

import dataclasses
import gc
import pickle
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.db import StreamingIngest, VideoDatabase
from repro.errors import StorageError
from repro.pipeline import MemoryArtifactStore, PipelineConfig, SegmentedRunner
from repro.sim import intersection
from repro.vision import (
    BackgroundModel,
    FrameReader,
    GaussianBackgroundModel,
    SegmentationPipeline,
    VideoClip,
)
from repro.vision.background import bootstrap_indices
from repro.vision.frames import READ_AHEAD

N_FRAMES = 150


def _helpers():
    return [t for t in threading.enumerate()
            if t.name == FrameReader.THREAD_NAME]


@pytest.fixture(autouse=True)
def no_helper_left():
    assert _helpers() == []
    yield
    assert _helpers() == []


@pytest.fixture(scope="module")
def sim():
    return intersection(n_frames=N_FRAMES, width=96, height=72, seed=4,
                        n_collisions=1)


class CountingClip(VideoClip):
    """A rendered clip that counts its renders per index and keeps a weak
    reference to every frame it returns.  It renders ``inner``, or
    ``sim`` with render seed 3."""

    def __init__(self, sim, inner=None):
        inner = inner or VideoClip.from_simulation(sim, render_seed=3)
        self.renders = Counter()
        self._refs = []
        lock = threading.Lock()  # the helper renders too

        def get(i):
            frame = inner.get(i)
            with lock:
                self.renders[i] += 1
                self._refs.append((i, weakref.ref(frame)))
            return frame

        super().__init__(inner.clip_id, len(inner), get)

    def live_indices(self) -> list[int]:
        """The indices of the rendered frames something still references."""
        gc.collect()
        return [i for i, ref in self._refs if ref() is not None]

    def live_frames(self) -> int:
        """How many rendered frames something still references."""
        return len(self.live_indices())


def _counting_runner(sim, segment_frames, monkeypatch, store=None):
    """A runner whose stream renders the clip it would render anyway,
    through a :class:`CountingClip`; returns ``(runner, clip)``."""
    runner = SegmentedRunner(segment_frames=segment_frames, store=store)
    clip = CountingClip(sim, runner._render(sim))
    monkeypatch.setattr(runner, "_render", lambda result: clip)
    return runner, clip


@pytest.mark.parametrize("model", [BackgroundModel, GaussianBackgroundModel])
def test_process_renders_each_frame_once(sim, model):
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(background=model(), use_spcpe=False)
    detections = pipeline.process(clip)
    assert len(detections) == N_FRAMES
    assert clip.renders == Counter(range(N_FRAMES))
    assert clip.live_frames() == 0


def test_sampled_frames_outside_the_range_drop_before_the_pass(sim):
    """A reader opened at frame ``lo`` on an unfitted background keeps
    the sampled frames at or after ``lo`` for its pass; the sampled
    frames before ``lo`` are dropped once the background is learned."""
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(use_spcpe=False)
    lo = 100
    with pipeline.open_reader(clip, lo) as frames:
        first = next(frames)
        alive = clip.live_indices()
        detections = [pipeline.detect(lo, first)]
        detections += [pipeline.detect(i, frame)
                       for i, frame in enumerate(frames, start=lo + 1)]
    in_range = [i for i in bootstrap_indices(N_FRAMES, 25) if i >= lo]
    # The frame being segmented, the helper's window and the sampled
    # frames in range; none of the sampled frames before ``lo``.
    assert min(alive) >= lo
    assert len(alive) <= len(in_range) + 1 + READ_AHEAD
    assert len(detections) == N_FRAMES - lo
    assert clip.renders == Counter(range(lo, N_FRAMES)) + Counter(
        i for i in bootstrap_indices(N_FRAMES, 25) if i < lo)
    del first
    assert clip.live_frames() == 0


@pytest.mark.parametrize("step", [1, 7, 40, 50, N_FRAMES])
def test_stream_renders_each_frame_once(sim, step, monkeypatch):
    """One reader per stream: the bootstrap's sampled frames are read by
    the segment that holds them, not rendered again, whatever the
    segment length."""
    runner, clip = _counting_runner(sim, step, monkeypatch)
    emissions = list(runner.stream(sim))
    assert len(emissions) == -(-N_FRAMES // step)
    assert clip.renders == Counter(range(N_FRAMES))
    assert clip.live_frames() == 0


@pytest.mark.parametrize("k", [1, 3])
def test_resumed_stream_renders_from_its_first_computed_segment(
        sim, k, monkeypatch):
    """After k stored segments, a resumed stream's carry has a fitted
    background: it renders no bootstrap sample, and no frame before its
    first computed segment."""
    store = MemoryArtifactStore()
    killed = SegmentedRunner(segment_frames=40, store=store).stream(sim)
    for _ in range(k):
        next(killed)
    killed.close()
    runner, clip = _counting_runner(sim, 40, monkeypatch, store=store)
    emissions = list(runner.stream(sim))
    assert [e.cached for e in emissions] == [True] * k + [False] * (4 - k)
    assert clip.renders == Counter(range(40 * k, N_FRAMES))
    assert clip.live_frames() == 0


def test_stream_holds_at_most_a_segment_past_the_caller(sim, monkeypatch):
    """While the caller segments frame i, the live frames are frame i,
    at most a segment's worth past it, and sampled frames past it not
    yet reached; frames before i are gone."""
    segment = 20
    sampled = set(bootstrap_indices(N_FRAMES, 25))
    runner, clip = _counting_runner(sim, segment, monkeypatch)
    detect, checked = SegmentationPipeline.detect, []

    def watching(self, i, frame):
        if i % 5 == 0:  # each segment's first frame, and some others
            alive = clip.live_indices()
            ahead = [j for j in alive if i < j <= i + segment]
            rest = [j for j in alive if j != i and j not in ahead]
            assert all(j > i and j in sampled for j in rest), (i, alive)
            assert len(alive) <= 1 + segment + sum(j > i for j in sampled)
            checked.append(i)
        return detect(self, i, frame)

    monkeypatch.setattr(SegmentationPipeline, "detect", watching)
    for _ in runner.stream(sim):
        threading.Event().wait(0.02)  # the caller's callback
    assert checked == list(range(0, N_FRAMES, 5))
    assert clip.live_frames() == 0


def test_helper_renders_the_next_segment_while_the_caller_is_away(
        sim, monkeypatch):
    """Between two segments the helper renders the whole next segment,
    and nothing past it.  (The caller may have rendered some of it
    itself before it left, rather than wait for the helper.)"""
    segment = 30
    sampled = set(bootstrap_indices(N_FRAMES, 25))
    runner, clip = _counting_runner(sim, segment, monkeypatch)
    stream = runner.stream(sim)
    try:
        first = next(stream)
        upcoming = set(range(first.frame_hi, first.frame_hi + segment))
        deadline = time.monotonic() + 60
        while not upcoming <= set(clip.renders):
            assert time.monotonic() < deadline, sorted(clip.renders)
            threading.Event().wait(0.001)
        threading.Event().wait(0.02)
        assert max(set(clip.renders) - sampled) <= max(upcoming)
    finally:
        stream.close()
    assert _helpers() == []
    assert clip.live_frames() == 0


def test_closed_stream_leaves_no_helper_or_frame(sim, monkeypatch):
    runner, clip = _counting_runner(sim, 20, monkeypatch)
    stream = runner.stream(sim)
    next(stream)
    assert len(_helpers()) == 1
    stream.close()
    assert _helpers() == []
    assert clip.live_frames() == 0
    assert runner.artifacts is None


def test_stream_collected_on_its_helper_closes_quietly(sim, monkeypatch):
    """A stream dropped unclosed in a reference cycle is finalized by
    whichever thread runs the collector, its own helper included: the
    reader then stops its helper without joining it from itself."""
    runner, clip = _counting_runner(sim, 20, monkeypatch)
    sampled = set(bootstrap_indices(N_FRAMES, 25))
    dropped, collected, errors = threading.Event(), threading.Event(), []
    monkeypatch.setattr(sys, "unraisablehook", errors.append)

    def get(i):
        # The stream's helper, starting a frame of the second segment.
        if (i >= 20 and i not in sampled and not dropped.is_set()
                and threading.current_thread().name
                == FrameReader.THREAD_NAME):
            assert dropped.wait(timeout=60)
            gc.collect()
            collected.set()
        return clip.get(i)

    monkeypatch.setattr(runner, "_render",
                        lambda result: VideoClip(sim.name, N_FRAMES, get))
    stream = runner.stream(sim)
    next(stream)
    cycle = [stream]
    cycle.append(cycle)
    del stream, cycle
    dropped.set()
    assert collected.wait(timeout=60)
    deadline = time.monotonic() + 60
    while _helpers():
        assert time.monotonic() < deadline
        threading.Event().wait(0.001)
    assert errors == []
    assert clip.live_frames() == 0


def test_on_emission_error_joins_the_helper(sim, monkeypatch):
    """``run`` closes its stream on the way out: the checks run while the
    exception, whose traceback holds ``run``'s frame and the stream it
    iterates, is still in flight."""
    runner, clip = _counting_runner(sim, 20, monkeypatch)

    def failing(emission):
        assert len(_helpers()) == 1  # rendering the next segment
        raise RuntimeError("append failed")

    with pytest.raises(RuntimeError, match="append failed"):
        try:
            runner.run(sim, on_emission=failing)
        finally:
            assert _helpers() == []
            assert clip.live_frames() == 0


def test_failed_append_joins_the_helper(sim, monkeypatch):
    db = VideoDatabase()
    ingest = StreamingIngest(db, sim, segment_frames=20)
    clip = CountingClip(sim, ingest.runner._render(sim))
    monkeypatch.setattr(ingest.runner, "_render", lambda result: clip)

    def failing_append(delta, **kwargs):
        raise StorageError("disk full (injected)")

    monkeypatch.setattr(db, "append_dataset", failing_append)
    try:
        with pytest.raises(StorageError, match="disk full"):
            try:
                ingest.run()
            finally:
                assert _helpers() == []
                assert clip.live_frames() == 0
        state = db.ingest_state(sim.name, "accident")
        assert state[0]["state"] == "failed"
    finally:
        db.close()


def test_failed_pass_keeps_no_sampled_frame(sim):
    """A segment pass that fails before it reaches the sampled frames
    drops them with its reader."""
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(use_spcpe=False)
    detect = pipeline.detect

    def failing(i, frame):
        if i == 3:
            raise RuntimeError("segmenter failed")
        return detect(i, frame)

    pipeline.detect = failing
    with pytest.raises(RuntimeError, match="segmenter failed"):
        pipeline.process(clip)
    assert clip.live_frames() == 0


def test_reader_hands_over_and_drops_rendered_frames(sim):
    clip = CountingClip(sim)
    rendered = {i: clip.get(i) for i in (0, 2, 5)}
    handed = rendered[2]
    with FrameReader(clip, range(4), rendered) as frames:
        first = next(frames)
        assert 0 not in rendered  # dropped as it was handed out
        got = [first] + list(frames)
    assert got[2] is handed
    assert rendered == {}  # frame 5 was never reached: closing dropped it
    assert clip.renders == Counter([0, 1, 2, 3, 5])
    del got, first, handed
    assert clip.live_frames() == 0


def test_streaming_carry_pickles_no_frame(sim):
    """Each stored carry pickles to no more than one whose segmenter was
    fitted from a frame stack and fed frame by frame."""
    config = PipelineConfig()
    store = MemoryArtifactStore()
    runner = SegmentedRunner(config, segment_frames=40, store=store)
    runner.run(sim)
    render = config.render
    clip = VideoClip.from_simulation(sim, render_seed=render.render_seed,
                                     noise_sigma=render.noise_sigma)
    frames = np.stack(list(clip))
    reference = SegmentationPipeline(
        use_spcpe=config.segment.use_spcpe,
        min_area=config.segment.min_area,
        max_area=config.segment.max_area,
        patch_margin=config.segment.patch_margin)
    reference.background.learn(frames)
    done = 0
    artifacts = [store.load(key) for key in runner.segment_keys(sim)]
    assert len(artifacts) == 4
    for artifact in artifacts:
        for i in range(done, artifact.frame_hi):
            reference.detect(i, frames[i])
        done = artifact.frame_hi
        carry = artifact.carry
        expected = dataclasses.replace(carry, segmenter=reference)
        assert len(pickle.dumps(carry)) <= len(pickle.dumps(expected))
        np.testing.assert_array_equal(carry.segmenter.background.background,
                                      reference.background.background)
