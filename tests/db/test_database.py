"""Tests for the SQLite video database catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import MILDataset
from repro.db import ClipRecord, LabelRecord, VideoDatabase
from repro.errors import StorageError
from repro.events import AccidentModel, build_dataset, extract_series
from repro.tracking.oracle import tracks_from_simulation


@pytest.fixture(scope="module")
def ingested(small_tunnel):
    db = VideoDatabase()
    tracks = tracks_from_simulation(small_tunnel)
    dataset = build_dataset(extract_series(tracks), AccidentModel(),
                            clip_id=small_tunnel.name)
    db.ingest_simulation(small_tunnel, tracks, dataset,
                         start_time="2026-07-06T08:00:00")
    return db, tracks, dataset


class TestClips:
    def test_roundtrip(self):
        db = VideoDatabase()
        record = ClipRecord(clip_id="c1", location="tunnel", camera="cam-1",
                            start_time="2026-07-06T08:00:00", fps=25.0,
                            n_frames=100, width=320, height=240,
                            extra={"k": 1})
        db.add_clip(record)
        assert db.clip("c1") == record

    def test_missing_clip_raises(self):
        with pytest.raises(StorageError, match="no clip"):
            VideoDatabase().clip("ghost")

    def test_metadata_filters(self):
        db = VideoDatabase()
        db.add_clip(ClipRecord(clip_id="a", location="tunnel",
                               camera="cam-1", fps=25, n_frames=1,
                               width=1, height=1))
        db.add_clip(ClipRecord(clip_id="b", location="intersection",
                               camera="cam-2", fps=25, n_frames=1,
                               width=1, height=1))
        assert [c.clip_id for c in db.clips()] == ["a", "b"]
        assert [c.clip_id for c in db.clips(location="tunnel")] == ["a"]
        assert [c.clip_id for c in db.clips(camera="cam-2")] == ["b"]
        assert db.clips(location="tunnel", camera="cam-2") == []

    def test_clip_id_required(self):
        with pytest.raises(StorageError):
            ClipRecord(clip_id="", fps=25)


class TestTracks:
    def test_records_and_points_stored(self, ingested, small_tunnel):
        db, tracks, _ = ingested
        records = db.track_records(small_tunnel.name)
        assert len(records) == len(tracks)
        frames, points = db.track_points(small_tunnel.name,
                                         tracks[0].track_id)
        assert np.array_equal(frames, tracks[0].frame_array())
        assert np.array_equal(points, tracks[0].point_array())

    def test_polynomial_model_reconstructs_positions(self, ingested,
                                                     small_tunnel):
        """The stored compact model (paper Section 3.2) approximates the
        raw trail."""
        db, tracks, _ = ingested
        record = db.track_records(small_tunnel.name)[0]
        frames, points = db.track_points(small_tunnel.name, record.track_id)
        mid = len(frames) // 2
        approx = record.position_at(frames[mid])
        assert np.linalg.norm(approx - points[mid]) < 8.0

    def test_tracks_require_existing_clip(self, small_tunnel):
        db = VideoDatabase()
        tracks = tracks_from_simulation(small_tunnel)
        with pytest.raises(StorageError):
            db.add_tracks("ghost", tracks)

    def test_vehicle_classes_stored(self, small_tunnel):
        db = VideoDatabase()
        db.add_clip(ClipRecord(clip_id=small_tunnel.name, fps=25,
                               n_frames=1, width=1, height=1))
        tracks = tracks_from_simulation(small_tunnel)[:2]
        db.add_tracks(small_tunnel.name, tracks,
                      vehicle_classes={tracks[0].track_id: "truck"})
        records = {r.track_id: r for r in
                   db.track_records(small_tunnel.name)}
        assert records[tracks[0].track_id].vehicle_class == "truck"
        assert records[tracks[1].track_id].vehicle_class == ""


class TestDatasets:
    def test_roundtrip_preserves_structure(self, ingested, small_tunnel):
        db, _, dataset = ingested
        loaded = db.dataset(small_tunnel.name, "accident")
        assert isinstance(loaded, MILDataset)
        assert len(loaded) == len(dataset)
        assert loaded.n_instances == dataset.n_instances
        assert loaded.feature_names == dataset.feature_names
        for orig, back in zip(dataset.bags, loaded.bags):
            assert orig.frame_range == back.frame_range
            for oi, bi in zip(orig.instances, back.instances):
                assert oi.track_id == bi.track_id
                assert np.allclose(oi.matrix, bi.matrix)

    def test_missing_dataset_raises(self, ingested):
        db, _, _ = ingested
        with pytest.raises(StorageError, match="no dataset"):
            db.dataset("tunnel", "u_turn")

    def test_events_for(self, ingested, small_tunnel):
        db, _, _ = ingested
        assert db.events_for(small_tunnel.name) == ["accident"]


class TestLabels:
    def test_roundtrip_and_filters(self, ingested, small_tunnel):
        db, _, _ = ingested
        labels = [
            LabelRecord(small_tunnel.name, "accident", 0, "alice", 0, True),
            LabelRecord(small_tunnel.name, "accident", 1, "alice", 0, False),
            LabelRecord(small_tunnel.name, "accident", 0, "bob", 0, False),
        ]
        db.add_labels(labels)
        alice = db.labels(small_tunnel.name, "accident", "alice")
        assert len(alice) == 2
        assert db.labels(small_tunnel.name, "accident", "bob")[0].relevant \
            is False

    def test_accumulated_latest_round_wins(self, ingested, small_tunnel):
        db, _, _ = ingested
        db.add_labels([
            LabelRecord(small_tunnel.name, "accident", 5, "carol", 0, False),
            LabelRecord(small_tunnel.name, "accident", 5, "carol", 1, True),
        ])
        acc = db.accumulated_labels(small_tunnel.name, "accident", "carol")
        assert acc[5] is True


#: Histories over two corpora and three tenants, with bags relabelled
#: across rounds (a repeated (bag, round) replaces the stored label).
_HISTORY = st.lists(st.builds(
    LabelRecord, clip_id=st.sampled_from(["c", "merged:c+d"]),
    event_name=st.just("accident"), bag_id=st.integers(0, 6),
    user_id=st.sampled_from(["u1", "u2", "u3"]),
    round_index=st.integers(0, 4), relevant=st.booleans()), max_size=40)


class TestLatestLabels:
    @settings(max_examples=80, deadline=None)
    @given(history=_HISTORY)
    def test_equals_the_fold_over_labels(self, history):
        """The one-statement read returns what folding every stored row
        of ``labels()`` in order gives: each bag's label from its latest
        round, and that round + 1 over all bags (0 with no rows)."""
        with VideoDatabase() as db:
            db.add_labels(history)
            for clip_id in ("c", "merged:c+d"):
                for user_id in ("u1", "u2", "u3", "nobody"):
                    fold, next_round = {}, 0
                    for rec in db.labels(clip_id, "accident", user_id):
                        fold[rec.bag_id] = rec.relevant
                        next_round = rec.round_index + 1
                    assert db.latest_labels(clip_id, "accident",
                                            user_id) == (fold, next_round)
                    assert db.accumulated_labels(
                        clip_id, "accident", user_id) == fold


class TestFilePersistence:
    def test_sqlite_file_reopen(self, tmp_path, small_tunnel):
        path = tmp_path / "videos.db"
        with VideoDatabase(path) as db:
            tracks = tracks_from_simulation(small_tunnel)
            dataset = build_dataset(extract_series(tracks), AccidentModel(),
                                    clip_id=small_tunnel.name)
            db.ingest_simulation(small_tunnel, tracks, dataset)
        with VideoDatabase(path) as fresh:
            assert fresh.clip(small_tunnel.name).n_frames \
                == small_tunnel.n_frames
            loaded = fresh.dataset(small_tunnel.name, "accident")
            assert loaded.n_instances > 0
