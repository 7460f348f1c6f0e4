"""A clip build renders each frame once, and keeps no frame past the call.

``SegmentationPipeline`` renders the background's bootstrap sample and
hands those frames to the segment pass.  The clip here counts its
renders per index and keeps a weak reference to every frame it returns,
so a frame still held by a reader, the pipeline or a streaming carry
after a call shows as a live reference.  As in ``test_frame_reader.py``,
no helper thread may be left running after a test.
"""

import dataclasses
import gc
import pickle
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

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
    reference to every frame it returns."""

    def __init__(self, sim):
        inner = VideoClip.from_simulation(sim, render_seed=3)
        self.renders = Counter()
        self._refs = []
        lock = threading.Lock()  # the helper renders too

        def get(i):
            frame = inner.get(i)
            with lock:
                self.renders[i] += 1
                self._refs.append(weakref.ref(frame))
            return frame

        super().__init__(inner.clip_id, len(inner), get)

    def live_frames(self) -> int:
        """How many rendered frames something still references."""
        gc.collect()
        return sum(ref() is not None for ref in self._refs)


@pytest.mark.parametrize("model", [BackgroundModel, GaussianBackgroundModel])
def test_process_renders_each_frame_once(sim, model):
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(background=model(), use_spcpe=False)
    detections = pipeline.process(clip)
    assert len(detections) == N_FRAMES
    assert clip.renders == Counter(range(N_FRAMES))
    assert clip.live_frames() == 0


@pytest.mark.parametrize("step", [1, 7, 50, N_FRAMES])
def test_ranges_render_each_frame_at_most_twice(sim, step):
    """The first range segments the sampled frames inside it without a
    second render; a sampled frame past it renders again in its range."""
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(use_spcpe=False)
    for lo in range(0, N_FRAMES, step):
        pipeline.process_range(clip, lo, min(lo + step, N_FRAMES))
        assert clip.live_frames() == 0
    again = [i for i in bootstrap_indices(N_FRAMES, 25) if i >= step]
    assert clip.renders == Counter(range(N_FRAMES)) + Counter(again)
    assert max(clip.renders.values()) <= 2


def test_sampled_frames_outside_the_range_drop_before_the_pass(sim):
    clip = CountingClip(sim)
    pipeline = SegmentationPipeline(use_spcpe=False)
    detect, alive = pipeline.detect, []

    def watching(i, frame):
        if i == 0:
            alive.append(clip.live_frames())
        return detect(i, frame)

    pipeline.detect = watching
    pipeline.process_range(clip, 0, 10)
    in_range = [i for i in bootstrap_indices(N_FRAMES, 25) if i < 10]
    # The sampled frames in range, the frame being segmented and the
    # helper's window; none of the other sampled frames.
    assert len(alive) == 1
    assert alive[0] <= len(in_range) + 1 + READ_AHEAD


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
