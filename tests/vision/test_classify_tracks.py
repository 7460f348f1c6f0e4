"""Tests for track-level vehicle classification (Section 3.1, last phase)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sim.ground_truth import TrackMatcher
from repro.tracking import CentroidTracker
from repro.vision import (
    SegmentationPipeline,
    VideoClip,
    classify_tracks,
    default_classifier,
)


@pytest.fixture(scope="module")
def pipeline_run(small_tunnel):
    clip = VideoClip.from_simulation(small_tunnel, render_seed=2)
    detections = SegmentationPipeline(use_spcpe=False).process(clip)
    tracks = CentroidTracker().track(detections)
    return clip, tracks


@pytest.fixture(scope="module")
def classifier():
    return default_classifier(per_class=30, seed=1)


class TestClassifyTracks:
    def test_every_track_gets_a_class(self, pipeline_run, classifier):
        clip, tracks = pipeline_run
        classes = classify_tracks(clip, tracks, classifier)
        assert set(classes) == {t.track_id for t in tracks}
        valid = {"car", "suv", "truck", "unknown"}
        assert set(classes.values()) <= valid

    def test_majority_classes_match_simulation(self, pipeline_run,
                                               classifier, small_tunnel):
        clip, tracks = pipeline_run
        classes = classify_tracks(clip, tracks, classifier)
        matcher = TrackMatcher(small_tunnel)
        kind_by_vid = {}
        for frame_states in small_tunnel.states:
            for s in frame_states:
                kind_by_vid[s.vid] = s.kind
        hits = total = 0
        for track in tracks:
            vid = matcher.match(track.frame_array(), track.point_array())
            label = classes[track.track_id]
            if vid is None or label == "unknown":
                continue
            total += 1
            hits += label == kind_by_vid[vid]
        assert total >= 3
        assert hits / total >= 0.7

    def test_default_classifier_built_on_demand(self, pipeline_run):
        clip, tracks = pipeline_run
        classes = classify_tracks(clip, tracks[:2])
        assert len(classes) == 2

    def test_track_at_frame_edge_is_unknown(self, classifier):
        from repro.tracking import Track
        from repro.vision.blobs import Blob

        frames = np.zeros((30, 40, 60), dtype=np.uint8)
        clip = VideoClip.from_array("edge", frames)
        track = Track(0)
        for f in range(10):
            blob = Blob(cx=2.0, cy=2.0, x0=0, y0=0, x1=4, y1=4,
                        area=16, mean_intensity=100.0)
            track.add(f, blob)
        classes = classify_tracks(clip, [track], classifier)
        assert classes[0] == "unknown"


#: Classifies 12 tracks with a stub whose three votes per track are
#: three different classes, and prints the class map as JSON.
TIED_VOTES_SCRIPT = """
import json

import numpy as np

from repro.tracking import Track
from repro.vision import VideoClip, classify_tracks
from repro.vision.blobs import Blob

NAMES = ["car", "suv", "truck", "van", "bus", "pickup"]


class TiedVotes:
    calls = 0

    def predict(self, patches):
        self.calls += 1
        return [NAMES[(self.calls + i) % len(NAMES)]
                for i in range(len(patches))]


clip = VideoClip.from_array("tied", np.zeros((12, 64, 64), dtype=np.uint8))
tracks = []
for track_id in range(12):
    track = Track(track_id)
    for frame in range(12):
        track.add(frame, Blob(cx=32.0, cy=32.0, x0=28, y0=28, x1=36, y1=36,
                              area=64, mean_intensity=0.0))
    tracks.append(track)
print(json.dumps(classify_tracks(clip, tracks, TiedVotes())))
"""


class TestTiedVotes:
    """A tied vote goes to the class voted at the earliest sampled frame.
    It used to follow set iteration order, so the class map changed with
    ``PYTHONHASHSEED``."""

    @staticmethod
    def _class_map(hash_seed: str) -> dict:
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", TIED_VOTES_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        return json.loads(done.stdout)

    def test_class_map_does_not_depend_on_hash_seed(self):
        first, second = self._class_map("1"), self._class_map("2")
        assert first == second
        names = ["car", "suv", "truck", "van", "bus", "pickup"]
        # Track i is the stub's (i + 1)-th call; its first vote wins.
        assert first == {str(i): names[(i + 1) % len(names)]
                         for i in range(12)}


class TestClassFilteredQuery:
    def test_results_filter_by_vehicle_class(self, small_tunnel):
        from repro.db import SemanticQuerySession, VideoDatabase
        from repro.eval import build_artifacts

        artifacts = build_artifacts(small_tunnel, mode="oracle")
        kinds = {}
        for frame_states in small_tunnel.states:
            for s in frame_states:
                kinds[s.vid] = s.kind
        db = VideoDatabase()
        db.ingest_simulation(small_tunnel, artifacts.tracks,
                             artifacts.dataset, vehicle_classes=kinds)
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=10)
        trucks_only = session.results(vehicle_class="truck")
        classes = db.vehicle_classes(small_tunnel.name)
        for bag_id in trucks_only:
            bag = session.dataset.bag_by_id(bag_id)
            assert any(classes.get(i.track_id) == "truck"
                       for i in bag.instances)

    def test_unknown_class_returns_empty(self, small_tunnel):
        from repro.db import SemanticQuerySession, VideoDatabase
        from repro.eval import build_artifacts

        artifacts = build_artifacts(small_tunnel, mode="oracle")
        db = VideoDatabase()
        db.ingest_simulation(small_tunnel, artifacts.tracks,
                             artifacts.dataset)
        session = SemanticQuerySession(db, small_tunnel.name, "accident")
        assert session.results(vehicle_class="zeppelin") == []
