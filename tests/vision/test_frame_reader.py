"""FrameReader: a clip's frames in order, rendered ahead on one helper.

Every case checks the frames against ``[clip.get(i) for i in idx]`` and,
through the autouse fixture, that no helper thread is left running.
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.obs import Telemetry, query_context, set_telemetry
from repro.sim import tunnel
from repro.sim.camera import CameraModel
from repro.vision import (
    BackgroundModel,
    FrameReader,
    GaussianBackgroundModel,
    SegmentationPipeline,
    VideoClip,
)
from repro.vision.frames import READ_AHEAD

N_FRAMES = 200


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
    return tunnel(n_frames=N_FRAMES, width=96, height=72, seed=3,
                  spawn_interval=(15.0, 25.0), n_wall_crashes=0,
                  n_sudden_stops=0)


def _sim_clip(sim):
    return VideoClip.from_simulation(sim, render_seed=5)


def _array_clip(sim):
    rng = np.random.default_rng(0)
    return VideoClip.from_array(
        "toy", rng.integers(0, 255, size=(N_FRAMES, 12, 16), dtype=np.uint8))


def _learn_indices(n=N_FRAMES, take=25):
    return np.linspace(0, n - 1, take).round().astype(int)


def _recording(inner, threads, started=None):
    """``inner`` behind a getter that records, in ``threads``, which thread
    rendered each index, and sets the event ``started[i]`` when it starts
    rendering ``i``."""
    def get(i):
        threads[i] = threading.current_thread().name
        if started and i in started:
            started[i].set()
        return inner.get(i)
    return VideoClip(inner.clip_id, len(inner), get)


INDEX_SETS = {
    "empty": [],
    "one": [7],
    "window": list(range(READ_AHEAD)),
    "window_plus_one": list(range(READ_AHEAD + 1)),
    "whole_clip": list(range(N_FRAMES)),
    "learn_sample": list(_learn_indices()),
    "unordered_repeats": [5, 3, 3, 39, 0, 5, 12],
}


@pytest.mark.parametrize("make_clip", [_sim_clip, _array_clip],
                         ids=["from_simulation", "from_array"])
@pytest.mark.parametrize("name", sorted(INDEX_SETS))
@pytest.mark.parametrize("slow_caller", [False, True],
                         ids=["fast_caller", "slow_caller"])
def test_frames_equal_sequential_gets(sim, make_clip, name, slow_caller):
    """Length and content: a reader that skipped or repeated an index
    while filling its window shifts every later frame, or waits forever
    for a frame nobody renders (so the reading thread has a deadline)."""
    clip = make_clip(sim)
    idx = INDEX_SETS[name]
    expected = [clip.get(i) for i in idx]
    got = []

    def consume():
        with FrameReader(clip, idx) as frames:
            for frame in frames:
                got.append(frame)
                if slow_caller:  # the helper gets ahead of the caller
                    threading.Event().wait(0.002)

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_helper_renders_ahead_of_a_slow_caller(sim):
    threads = {}
    clip = _recording(_sim_clip(sim), threads)
    with FrameReader(clip, range(N_FRAMES)) as frames:
        for _ in frames:
            threading.Event().wait(0.005)
    assert threads[0] == threading.current_thread().name
    assert FrameReader.THREAD_NAME in threads.values()


def test_plain_sequence_is_read_in_place():
    frames = [np.full((3, 3), i, dtype=np.uint8) for i in range(6)]
    with FrameReader(frames, [4, 1, 1]) as reader:
        got = list(reader)
        assert _helpers() == []
    assert [int(f[0, 0]) for f in got] == [4, 1, 1]
    assert got[0] is frames[4]


@pytest.mark.parametrize("slow_caller", [False, True],
                         ids=["fast_caller", "slow_caller"])
def test_index_error_raised_at_its_frame(sim, slow_caller):
    clip = _array_clip(sim)
    idx = [0, 1, 2, N_FRAMES + 3, 3, 4]
    got = []
    reader = FrameReader(clip, idx)
    with pytest.raises(IndexError, match="out of range"):
        for frame in reader:
            got.append(frame)
            if slow_caller:
                threading.Event().wait(0.01)
    assert len(got) == 3
    for a, i in zip(got, idx):
        np.testing.assert_array_equal(a, clip.get(i))
    with pytest.raises(StopIteration):
        next(reader)


def test_shape_mismatch_raised_at_its_frame():
    good = np.zeros((4, 4), dtype=np.uint8)
    bad = np.zeros((5, 5), dtype=np.uint8)
    clip = VideoClip("c", 10, lambda i: bad if i == 5 else good)
    got = []
    with pytest.raises(PipelineError, match="frame 5 shape"):
        with FrameReader(clip, range(10)) as frames:
            for frame in frames:
                got.append(frame)
                threading.Event().wait(0.005)
    assert len(got) == 5


def test_shape_mismatch_in_process_is_raised_at_its_frame():
    """The segmenter sees frames 0-5 before frame 6's error surfaces."""
    good = np.zeros((16, 16), dtype=np.uint8)
    bad = np.zeros((16, 17), dtype=np.uint8)
    clip = VideoClip("c", 12, lambda i: bad if i == 6 else good)
    seen = []
    pipeline = SegmentationPipeline(use_spcpe=False)
    pipeline.background.set_background(good)
    detect = pipeline.detect
    pipeline.detect = lambda i, frame: (seen.append(i), detect(i, frame))[1]
    with pytest.raises(PipelineError, match="frame 6 shape"):
        pipeline.process(clip)
    assert seen == [0, 1, 2, 3, 4, 5]


def test_close_half_consumed_reader(sim):
    clip = _sim_clip(sim)
    reader = FrameReader(clip, range(N_FRAMES))
    for _ in range(3):
        next(reader)
    threading.Event().wait(0.02)  # let the helper fill its window
    assert len(_helpers()) == 1  # waiting for the caller to move on
    reader.close()
    assert _helpers() == []
    with pytest.raises(StopIteration):
        next(reader)
    reader.close()


def test_caller_error_inside_with_joins_the_helper(sim):
    clip = _sim_clip(sim)
    with pytest.raises(RuntimeError, match="caller"):
        with FrameReader(clip, range(N_FRAMES)) as frames:
            next(frames)
            next(frames)
            raise RuntimeError("caller failed")


def test_read_ahead_render_carries_callers_query_id(sim):
    """A ``render.projection_clipped`` event raised on the helper thread
    is stamped with the caller's query context."""
    lane_y = next(state.y for frame in sim.states for state in frame)
    on_horizon = next(i for i, frame in enumerate(sim.states)
                      if any(state.y == lane_y for state in frame))
    empty = next(i for i, frame in enumerate(sim.states) if not frame)
    # w = y - lane_y: a vehicle in that lane projects to infinity.
    camera = CameraModel(np.array([[1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0],
                                   [0.0, 1.0, -lane_y]]))
    threads, started = {}, {on_horizon: threading.Event()}
    clip = _recording(VideoClip.from_simulation(sim, camera=camera),
                      threads, started)
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    try:
        with query_context("q-ahead", session_id="s1", query_round=2):
            with FrameReader(clip, [empty, on_horizon]) as frames:
                next(frames)  # the caller renders the empty frame
                # Once the helper has started the horizon frame, the
                # caller waits for it instead of rendering it.
                assert started[on_horizon].wait(timeout=30)
                list(frames)
    finally:
        set_telemetry(previous)
    assert threads[on_horizon] == FrameReader.THREAD_NAME
    events = [e for e in telemetry.events
              if e["name"] == "render.projection_clipped"]
    assert events
    for event in events:
        assert event["query_id"] == "q-ahead"
        assert event["session_id"] == "s1"
        assert event["query_round"] == 2


@pytest.mark.parametrize("model", [BackgroundModel, GaussianBackgroundModel])
def test_learn_from_clip_equals_learn_from_array(sim, model):
    clip = _sim_clip(sim)
    stacked = np.stack([clip.get(i) for i in range(len(clip))])
    a, b = model().learn(clip), model().learn(stacked)
    np.testing.assert_array_equal(a.background, b.background)
    if model is GaussianBackgroundModel:
        np.testing.assert_array_equal(a.var, b.var)


def test_process_and_ranges_equal_sequential_detect(sim):
    """Read-ahead changes no detection: ``process`` and a stream's read
    in 7-frame ranges (one reader with a 7-frame window, the caller away
    after each range while the helper fills it) equal a frame-by-frame
    ``detect`` loop."""
    clip = _sim_clip(sim)
    stacked = np.stack([clip.get(i) for i in range(len(clip))])
    reference = SegmentationPipeline(use_spcpe=False)
    reference.background.learn(stacked)
    expected = [reference.detect(i, stacked[i]) for i in range(len(clip))]
    assert SegmentationPipeline(use_spcpe=False).process(clip) == expected
    ranged = SegmentationPipeline(use_spcpe=False)
    got = []
    with ranged.open_reader(clip, window=7) as frames:
        for i, frame in enumerate(frames):
            got.append(ranged.detect(i, frame))
            if i % 7 == 6:
                threading.Event().wait(0.005)
    assert got == expected


@pytest.mark.parametrize("window", [1, READ_AHEAD, 7])
def test_helper_renders_at_most_its_window_ahead(sim, window):
    """Past the frame the caller last took, the helper starts at most
    ``window`` frames, however long the caller stays away."""
    threads = {}
    clip = _recording(_sim_clip(sim), threads)
    with FrameReader(clip, range(40), window=window) as frames:
        for i, _ in enumerate(frames):
            threading.Event().wait(0.003)
            assert max(threads) <= i + window
    assert FrameReader.THREAD_NAME in threads.values()


def test_window_must_be_positive(sim):
    with pytest.raises(PipelineError, match="window"):
        FrameReader(_sim_clip(sim), range(3), window=0)


def test_stress_concurrent_readers_with_short_switch_interval(sim):
    """Three readers over one clip (six threads, more than most test
    hosts have cores), with thread switches forced often: a lost window
    or result update would drop, repeat or deadlock a frame."""
    clip = _array_clip(sim)
    rng = np.random.default_rng(1)
    orders = [rng.integers(0, N_FRAMES, size=400) for _ in range(3)]
    results = {}

    def consume(k):
        with FrameReader(clip, orders[k]) as frames:
            results[k] = [int(f.sum()) for f in frames]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=consume, args=(k,), daemon=True)
                   for k in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(previous)
    sums = [int(clip.get(i).sum()) for i in range(N_FRAMES)]
    for k in range(3):
        assert results[k] == [sums[i] for i in orders[k]]
