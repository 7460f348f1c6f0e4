"""Tests for persistent semantic query sessions."""

import pytest

from repro.core import OracleUser
from repro.db import MultiClipQuerySession, SemanticQuerySession, VideoDatabase
from repro.errors import ConfigurationError, DatabaseBusyError
from repro.eval import build_artifacts
from repro.events import AccidentModel, build_dataset, extract_series
from repro.sim import GroundTruth, tunnel
from repro.tracking.oracle import tracks_from_simulation


@pytest.fixture()
def db_with_clip(small_tunnel):
    db = VideoDatabase()
    tracks = tracks_from_simulation(small_tunnel)
    dataset = build_dataset(extract_series(tracks), AccidentModel(),
                            clip_id=small_tunnel.name)
    db.ingest_simulation(small_tunnel, tracks, dataset)
    return db, GroundTruth.from_result(small_tunnel)


class TestSemanticQuerySession:
    def test_results_are_bag_ids(self, db_with_clip, small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=5)
        results = session.results()
        assert len(results) == 5
        windows = session.result_windows()
        assert [w[0] for w in windows] == results

    def test_feedback_persists_labels(self, db_with_clip, small_tunnel):
        db, gt = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="u1", top_k=5)
        user = OracleUser(gt)
        bags = [session.dataset.bag_by_id(b) for b in session.results()]
        session.feed(user.label_bags(bags))
        stored = db.labels(small_tunnel.name, "accident", "u1")
        assert len(stored) == 5
        assert all(rec.round_index == 0 for rec in stored)

    def test_session_resume_restores_feedback(self, db_with_clip,
                                              small_tunnel):
        db, gt = db_with_clip
        first = SemanticQuerySession(db, small_tunnel.name, "accident",
                                     user_id="u2", top_k=8)
        user = OracleUser(gt)
        bags = [first.dataset.bag_by_id(b) for b in first.results()]
        first.feed(user.label_bags(bags))
        after_feedback = first.results()

        resumed = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="u2", top_k=8)
        assert resumed.round_index == 1
        assert resumed.results() == after_feedback

    def test_users_are_isolated(self, db_with_clip, small_tunnel):
        db, gt = db_with_clip
        s1 = SemanticQuerySession(db, small_tunnel.name, "accident",
                                  user_id="a", top_k=5)
        s1.feed({b: True for b in s1.results()})
        s2 = SemanticQuerySession(db, small_tunnel.name, "accident",
                                  user_id="b", top_k=5)
        assert s2.round_index == 0
        assert not s2.engine.labels

    def test_engine_registry(self, db_with_clip, small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       engine="weighted_rf")
        assert session.results()

    def test_validation(self, db_with_clip, small_tunnel):
        db, _ = db_with_clip
        with pytest.raises(ConfigurationError):
            SemanticQuerySession(db, small_tunnel.name, "accident",
                                 engine="bogus")
        with pytest.raises(ConfigurationError):
            SemanticQuerySession(db, small_tunnel.name, "accident", top_k=0)
        session = SemanticQuerySession(db, small_tunnel.name, "accident")
        with pytest.raises(ConfigurationError):
            session.feed({})


class TestResumeReadsHistoryOnce:
    """Resume and resync read the stored label history in one query:
    the latest label per bag and the next round come from the same
    rows (they used to be read twice, through ``accumulated_labels``
    and ``labels``)."""

    @staticmethod
    def _count_reads(monkeypatch, db):
        calls = []
        for method in ("labels", "accumulated_labels"):
            original = getattr(db, method)

            def counting(*args, _method=method, _original=original,
                         **kwargs):
                calls.append(_method)
                return _original(*args, **kwargs)

            monkeypatch.setattr(db, method, counting)
        return calls

    def test_resume_makes_one_labels_read(self, db_with_clip, small_tunnel,
                                          monkeypatch):
        db, gt = db_with_clip
        first = SemanticQuerySession(db, small_tunnel.name, "accident",
                                     user_id="once", top_k=8)
        user = OracleUser(gt)
        for _ in range(2):
            bags = [first.dataset.bag_by_id(b) for b in first.results()]
            first.feed(user.label_bags(bags))
        calls = self._count_reads(monkeypatch, db)
        resumed = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="once", top_k=8)
        assert calls == ["labels"]
        assert resumed.round_index == first.round_index == 2
        assert resumed.engine.labels == db.accumulated_labels(
            small_tunnel.name, "accident", "once")
        assert resumed.results() == first.results()
        calls.clear()
        assert resumed.resync() == 2
        assert calls == ["labels"]


class TestFeedStateConsistency:
    """Regression: a feed round the engine rejects must leave the stored
    label history, the round counter, and the engine untouched — the old
    code persisted first, so a rejected round desynced DB vs engine for
    every later resume."""

    def test_rejected_feed_leaves_session_and_db_untouched(
            self, db_with_clip, small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="r1", top_k=5)
        before = session.results()
        with pytest.raises(ConfigurationError, match="unknown bag ids"):
            session.feed({999_999: True})
        assert session.round_index == 0
        assert session.engine.labels == {}
        assert db.labels(small_tunnel.name, "accident", "r1") == []
        assert session.results() == before

    def test_resume_after_rejected_feed_is_clean(self, db_with_clip,
                                                 small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="r2", top_k=5)
        good = {b: True for b in session.results()}
        session.feed(good)
        with pytest.raises(ConfigurationError):
            session.feed({999_999: False})
        resumed = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       user_id="r2", top_k=5)
        assert resumed.round_index == 1
        assert resumed.engine.labels == session.engine.labels
        assert resumed.results() == session.results()


class TestFailedLabelWrite:
    """Regression: the engine takes a round's labels before the catalog
    write, so a write that failed (busy catalog) used to leave the
    session ranking on labels the catalog never stored — and the
    service kept serving that ranking after answering 503."""

    @pytest.fixture()
    def stored_tunnel(self):
        sim = tunnel(n_frames=600, seed=1, n_wall_crashes=2,
                     n_sudden_stops=1)
        artifacts = build_artifacts(sim, mode="oracle")
        db = VideoDatabase()
        db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset)
        return db, sim.name, artifacts.relevant_bag_ids

    @staticmethod
    def _fail_once(monkeypatch, db, method):
        original = getattr(db, method)
        calls = []

        def busy_once(*args, **kwargs):
            calls.append(method)
            if len(calls) == 1:
                raise DatabaseBusyError("database is locked")
            return original(*args, **kwargs)

        monkeypatch.setattr(db, method, busy_once)

    def _failed_feed(self, stored_tunnel, monkeypatch):
        """A session whose 20-label round hit a busy catalog."""
        db, clip, relevant = stored_tunnel
        session = MultiClipQuerySession(db, [clip], "accident",
                                        user_id="w", top_k=20)
        labels = {b: b in relevant for b in session.results()}
        assert len(labels) == 20 and any(labels.values())
        self._fail_once(monkeypatch, db, "add_labels")
        with pytest.raises(DatabaseBusyError):
            session.feed(labels)
        assert db.labels(session.corpus_id, "accident", "w") == []
        fresh = MultiClipQuerySession(db, [clip], "accident",
                                      user_id="w", top_k=20)
        return session, labels, fresh

    def test_next_round_ranks_from_stored_history(self, stored_tunnel,
                                                  monkeypatch):
        session, labels, fresh = self._failed_feed(stored_tunnel,
                                                   monkeypatch)
        assert session.results() == fresh.results()
        assert session.round_index == 0 and session.engine.labels == {}
        # The retried round is stored as round 0.
        session.feed(labels)
        db, clip, _ = stored_tunnel
        resumed = MultiClipQuerySession(db, [clip], "accident",
                                        user_id="w", top_k=20)
        assert session.round_index == resumed.round_index == 1
        assert session.results() == resumed.results()

    def test_still_busy_catalog_fails_the_resync(self, stored_tunnel,
                                                 monkeypatch):
        session, _, fresh = self._failed_feed(stored_tunnel, monkeypatch)
        db, _, _ = stored_tunnel
        self._fail_once(monkeypatch, db, "labels")
        with pytest.raises(DatabaseBusyError):
            session.results()
        assert session.results() == fresh.results()


class TestVehicleClassCache:
    def test_classes_fetched_once_per_clip(self, db_with_clip,
                                           small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=5)
        calls = []
        original = db.vehicle_classes

        def counting(clip_id):
            calls.append(clip_id)
            return original(clip_id)

        db.vehicle_classes = counting
        session.results(vehicle_class="car")
        session.results(vehicle_class="car")
        assert calls == [small_tunnel.name]

    def test_cache_invalidated_by_metadata_change(self, db_with_clip,
                                                  small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=5)
        calls = []
        original = db.vehicle_classes

        def counting(clip_id):
            calls.append(clip_id)
            return original(clip_id)

        db.vehicle_classes = counting
        session.results(vehicle_class="car")
        db.add_tracks(small_tunnel.name, [])  # bumps metadata_version
        session.results(vehicle_class="car")
        assert calls == [small_tunnel.name, small_tunnel.name]

    def test_filter_restricts_to_matching_bags(self, db_with_clip,
                                               small_tunnel):
        db, _ = db_with_clip
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=5)
        classes = db.vehicle_classes(small_tunnel.name)
        present = {c for c in classes.values() if c}
        for cls in present or {"car"}:
            for bag_id in session.results(vehicle_class=cls):
                bag = session.dataset.bag_by_id(bag_id)
                assert any(classes.get(i.track_id) == cls
                           for i in bag.instances)
        assert session.results(vehicle_class="hovercraft") == []
