"""Cross-cutting property-based tests (hypothesis).

Each class targets an invariant that should hold for *any* input, not
just the fixtures: tracker outputs are well-formed for arbitrary
detection streams, window extraction never loses or duplicates
checkpoints, engines always rank a permutation, the database round-trips
arbitrary datasets, stitching never changes total observations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import Bag, Instance, MILDataset
from repro.vision.blobs import Blob
from repro.vision.pipeline import Detection


# --------------------------------------------------------------- strategies
@st.composite
def detection_streams(draw):
    """Random per-frame detection lists for a handful of moving targets."""
    n_frames = draw(st.integers(10, 40))
    n_targets = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    starts = rng.uniform([0, 0], [100, 100], size=(n_targets, 2))
    vels = rng.uniform(-3, 3, size=(n_targets, 2))
    drop = draw(st.floats(0.0, 0.3))
    frames = []
    for f in range(n_frames):
        dets = []
        for t in range(n_targets):
            if rng.random() < drop:
                continue
            x, y = starts[t] + vels[t] * f
            blob = Blob(cx=float(x), cy=float(y), x0=int(x) - 4,
                        y0=int(y) - 3, x1=int(x) + 4, y1=int(y) + 3,
                        area=48, mean_intensity=150.0)
            dets.append(Detection(frame=f, blob=blob))
        frames.append(dets)
    return frames


@st.composite
def mil_datasets(draw):
    """Random small MIL datasets with consistent ids."""
    n_bags = draw(st.integers(1, 8))
    window, features = 3, 2
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    bags, iid = [], 0
    for b in range(n_bags):
        n_inst = draw(st.integers(0, 4))
        instances = []
        for _ in range(n_inst):
            instances.append(Instance(
                instance_id=iid, bag_id=b, track_id=iid,
                matrix=rng.normal(size=(window, features))))
            iid += 1
        bags.append(Bag(bag_id=b, clip_id="prop", frame_lo=b * 15,
                        frame_hi=b * 15 + 14, instances=tuple(instances)))
    return MILDataset(clip_id="prop", event_name="accident",
                      feature_names=("f0", "f1"), window_size=window,
                      sampling_rate=5, bags=bags)


# ------------------------------------------------------------------ tracker
class TestTrackerProperties:
    @given(detection_streams())
    @settings(max_examples=30, deadline=None)
    def test_tracks_always_well_formed(self, stream):
        from repro.tracking import CentroidTracker

        tracks = CentroidTracker(min_track_length=2).track(stream)
        n_detections = sum(len(d) for d in stream)
        n_observations = sum(len(t) for t in tracks)
        # Never invent observations.
        assert n_observations <= n_detections
        for track in tracks:
            frames = track.frame_array()
            assert np.all(np.diff(frames) > 0)  # strictly increasing
            assert track.first_frame >= 0
            assert track.last_frame < len(stream)

    @given(detection_streams())
    @settings(max_examples=30, deadline=None)
    def test_stitching_preserves_observations(self, stream):
        from repro.tracking import CentroidTracker, stitch_tracks

        tracks = CentroidTracker(min_track_length=2).track(stream)
        stitched = stitch_tracks(tracks)
        assert sum(len(t) for t in stitched) == sum(len(t) for t in tracks)
        assert len(stitched) <= len(tracks)


# ------------------------------------------------------------------ windows
class TestWindowProperties:
    @given(first=st.integers(0, 50), n=st.integers(12, 120),
           v=st.floats(0.5, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_every_instance_row_comes_from_its_series(self, first, n, v):
        from repro.events import AccidentModel, build_dataset, extract_series
        from repro.events.features import SamplingConfig
        from tests.events.test_features import _track

        track = _track(0, [(v * i, 40.0) for i in range(n)],
                       first_frame=first)
        cfg = SamplingConfig(smooth_window=1)
        series = extract_series([track], cfg)
        dataset = build_dataset(series, AccidentModel(), config=cfg)
        if not series:
            assert len(dataset) == 0
            return
        matrix = AccidentModel().feature_matrix(series[0])
        for bag in dataset.bags:
            for inst in bag.instances:
                # The instance window appears verbatim in the series.
                found = any(
                    np.allclose(matrix[i : i + 3], inst.matrix)
                    for i in range(len(matrix) - 2)
                )
                assert found

    @given(n=st.integers(31, 200), step=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_bag_count_matches_stride_formula(self, n, step):
        from repro.events import AccidentModel, build_dataset, extract_series
        from repro.events.features import SamplingConfig
        from tests.events.test_features import _straight_track

        cfg = SamplingConfig(smooth_window=1)
        series = extract_series([_straight_track(n=n)], cfg)
        dataset = build_dataset(series, AccidentModel(), step=step,
                                config=cfg)
        n_checkpoints = len(series[0])
        expected = max(0, (n_checkpoints - 3) // step + 1)
        assert len(dataset) == expected


# ------------------------------------------------------------------ engines
class TestEngineProperties:
    @given(mil_datasets(), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_rank_is_always_a_permutation(self, dataset, n_labels):
        from repro.core import MILRetrievalEngine
        from repro.errors import ConfigurationError

        try:
            engine = MILRetrievalEngine(dataset)
        except ConfigurationError:
            # Degenerate datasets (no bags / all bags empty) must be
            # rejected cleanly, never crash.
            assert dataset.n_instances == 0 or not dataset.bags
            return
        rng = np.random.default_rng(0)
        bag_ids = [b.bag_id for b in dataset.bags]
        labels = {int(b): bool(rng.random() < 0.5)
                  for b in rng.choice(bag_ids,
                                      size=min(n_labels, len(bag_ids)),
                                      replace=False)}
        if labels:
            engine.feed(labels)
        ranking = engine.rank()
        assert sorted(ranking) == sorted(bag_ids)


# ----------------------------------------------------------------- database
class TestDatabaseProperties:
    @given(mil_datasets())
    @settings(max_examples=20, deadline=None)
    def test_dataset_roundtrip(self, dataset):
        from repro.db import ClipRecord, VideoDatabase

        db = VideoDatabase()
        db.add_clip(ClipRecord(clip_id="prop", fps=25.0, n_frames=200,
                               width=320, height=240))
        db.add_dataset(dataset)
        loaded = db.dataset("prop", "accident")
        assert len(loaded) == len(dataset)
        assert loaded.n_instances == dataset.n_instances
        for orig, back in zip(dataset.bags, loaded.bags):
            assert orig.frame_range == back.frame_range
            for oi, bi in zip(orig.instances, back.instances):
                assert np.allclose(oi.matrix, bi.matrix)


# --------------------------------------------------------------------- misc
class TestExperimentSerialization:
    def test_to_json_dict_is_json_serializable(self):
        import json

        from repro.eval.experiments import ExperimentResult
        from repro.eval.protocol import ProtocolResult

        result = ExperimentResult(
            name="x", series={}, expectation="e",
            metadata={"tuple": (1, 2), "arr": np.float64(0.5)})
        result.add("m", ProtocolResult(
            method="m", accuracies=[0.1, 0.2], n_relevant_total=3,
            n_bags=10, top_k=5))
        text = json.dumps(result.to_json_dict())
        assert "expectation" in text
        assert json.loads(text)["summary"]["m"]["final"] == 0.2
