"""Session-concurrency regressions: the lost-update race, ambiguous
session ids, and multi-worker access to one WAL catalog."""

import sys
import threading

import pytest

from repro.core import MultiClipOracle
from repro.db import MultiClipQuerySession, SessionRecord, VideoDatabase
from repro.db.database import ROUND_HEAD_SQL, connect_sqlite
from repro.db.schema import LabelRecord
from repro.errors import (
    ConfigurationError,
    DatabaseBusyError,
    SessionConflictError,
    StorageError,
)
from repro.eval import build_artifacts
from repro.service import RetrievalService
from repro.sim import GroundTruth


def _labels(round_index, *, user="ana", n=3, relevant=True):
    return [LabelRecord(clip_id="merged:a+b", event_name="accident",
                        bag_id=i, user_id=user, round_index=round_index,
                        relevant=relevant) for i in range(n)]


@pytest.fixture()
def catalog_path(tmp_path, small_tunnel, small_intersection):
    """File-backed two-clip catalog plus its ground truths."""
    path = str(tmp_path / "catalog.sqlite")
    truths = {}
    with VideoDatabase(path) as db:
        for sim in (small_tunnel, small_intersection):
            artifacts = build_artifacts(sim, mode="oracle")
            db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset)
            truths[sim.name] = GroundTruth.from_result(sim)
    return path, [small_tunnel.name, small_intersection.name], truths


class TestOptimisticRoundGuard:
    """``add_labels(expect_round=...)`` at the catalog level."""

    def test_matching_round_commits(self):
        with VideoDatabase() as db:
            db.add_labels(_labels(0), expect_round=0)
            db.add_labels(_labels(1), expect_round=1)
            stored = db.labels("merged:a+b", "accident", "ana")
            assert {r.round_index for r in stored} == {0, 1}

    def test_stale_round_raises_and_writes_nothing(self):
        with VideoDatabase() as db:
            db.add_labels(_labels(0), expect_round=0)
            with pytest.raises(SessionConflictError) as err:
                db.add_labels(_labels(0, n=5), expect_round=0)
            assert err.value.expected_round == 0
            assert err.value.stored_next_round == 1
            stored = db.labels("merged:a+b", "accident", "ana")
            assert len(stored) == 3  # the losing batch left no rows

    def test_future_round_also_rejected(self):
        with VideoDatabase() as db:
            with pytest.raises(SessionConflictError):
                db.add_labels(_labels(2), expect_round=2)

    def test_guard_requires_single_session_head(self):
        with VideoDatabase() as db:
            mixed = _labels(0, user="ana") + _labels(0, user="bob")
            with pytest.raises(ConfigurationError):
                db.add_labels(mixed, expect_round=0)

    def test_unguarded_path_unchanged(self):
        with VideoDatabase() as db:
            db.add_labels(_labels(0))
            db.add_labels(_labels(0, relevant=False))  # REPLACE, no guard
            stored = db.labels("merged:a+b", "accident", "ana")
            assert all(not r.relevant for r in stored)


class TestRoundGuardIndex:
    """The guard reads only its own tenant's rows.  It used to search the
    primary key's ``(clip_id, event)`` prefix, so its cost grew with every
    other tenant's labels on the corpus."""

    @staticmethod
    def _label_indexes(path) -> set[str]:
        conn = connect_sqlite(str(path))
        try:
            return {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type='index' AND tbl_name='labels'")}
        finally:
            conn.close()

    def test_guard_searches_one_tenant(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with VideoDatabase(path) as db:
            db.add_labels([
                LabelRecord(clip_id="merged:a+b", event_name="accident",
                            bag_id=bag, user_id=f"other{tenant}",
                            round_index=round_index, relevant=bag % 3 == 0)
                for tenant in range(40) for round_index in range(10)
                for bag in range(25)])
            db.add_labels(_labels(0), expect_round=0)
            db.add_labels(_labels(1), expect_round=1)
        conn = connect_sqlite(str(path))
        try:
            assert conn.execute(
                "SELECT COUNT(*) FROM labels").fetchone()[0] == 10_006
            plan = [row[-1] for row in conn.execute(
                "EXPLAIN QUERY PLAN " + ROUND_HEAD_SQL,
                ("merged:a+b", "accident", "ana"))]
        finally:
            conn.close()
        assert len(plan) == 1, plan
        assert plan[0].startswith("SEARCH"), plan
        assert ("INDEX idx_labels_head "
                "(clip_id=? AND event=? AND user_id=?)") in plan[0], plan

    def test_reopen_replaces_the_old_index(self, tmp_path):
        path = tmp_path / "old.sqlite"
        with VideoDatabase(path) as db:
            db.add_labels(_labels(0))
        # Rewind the catalog to the schema before idx_labels_head.
        conn = connect_sqlite(str(path))
        conn.executescript(
            "DROP INDEX idx_labels_head;"
            " CREATE INDEX idx_labels_query"
            " ON labels (clip_id, event, user_id);")
        conn.close()
        old = self._label_indexes(path)
        assert "idx_labels_query" in old and "idx_labels_head" not in old
        with VideoDatabase(path) as db:
            db.add_labels(_labels(1), expect_round=1)
            assert len(db.labels("merged:a+b", "accident", "ana")) == 6
        indexes = self._label_indexes(path)
        assert "idx_labels_head" in indexes
        assert "idx_labels_query" not in indexes


class TestLostUpdateRace:
    """Two workers resume the same session; the slower feed must lose
    loudly instead of silently merging histories (the headline bug)."""

    def test_second_feed_conflicts_and_resyncs(self, catalog_path):
        path, clips, truths = catalog_path
        oracle = MultiClipOracle(truths)
        with VideoDatabase(path) as db_a, VideoDatabase(path) as db_b:
            a = MultiClipQuerySession(db_a, clips, "accident",
                                      user_id="kim", top_k=8)
            b = MultiClipQuerySession(db_b, clips, "accident",
                                      user_id="kim", top_k=8)
            assert a.round_index == b.round_index == 0
            bags_a = [a.dataset.bag_by_id(i) for i in a.results()]
            a.feed(oracle.label_bags(bags_a))
            assert a.round_index == 1

            bags_b = [b.dataset.bag_by_id(i) for i in b.results()]
            with pytest.raises(SessionConflictError):
                b.feed(oracle.label_bags(bags_b))
            # the loser is resynced onto the winning history...
            assert b.round_index == 1
            assert b.results() == a.results()
            # ...and its retry lands as round 1, not a second round 0
            b.feed(oracle.label_bags(
                [b.dataset.bag_by_id(i) for i in b.results()]))
            assert b.round_index == 2
            stored = db_a.labels(a.corpus_id, "accident", "kim")
            assert max(r.round_index for r in stored) == 1

    def test_replay_matches_serial_history(self, catalog_path):
        path, clips, truths = catalog_path
        oracle = MultiClipOracle(truths)
        with VideoDatabase(path) as db:
            live = MultiClipQuerySession(db, clips, "accident",
                                         user_id="liu", top_k=8)
            for _ in range(3):
                bags = [live.dataset.bag_by_id(i) for i in live.results()]
                live.feed(oracle.label_bags(bags))
            final = live.results()
        with VideoDatabase(path) as db:
            resumed = MultiClipQuerySession(db, clips, "accident",
                                            user_id="liu", top_k=8)
            assert resumed.round_index == 3
            assert resumed.results() == final

    def test_conflict_is_not_retryable_verbatim(self):
        from repro.errors import RetryableError
        err = SessionConflictError("u:c:e", expected_round=0,
                                   stored_next_round=2)
        assert isinstance(err, StorageError)
        assert not isinstance(err, RetryableError)


class TestSessionIdAmbiguity:
    """``user:corpus:event`` must stay a parseable triple."""

    @pytest.mark.parametrize("user", ["a:b", ":", "kim:", ""])
    def test_adversarial_user_ids_rejected(self, catalog_path, user):
        path, clips, _ = catalog_path
        with VideoDatabase(path) as db:
            with pytest.raises(ConfigurationError):
                MultiClipQuerySession(db, clips, "accident", user_id=user)

    def test_colliding_ids_would_share_history(self, catalog_path):
        # the attack the guard prevents: "a:b" over corpus "c" collides
        # with "a" over corpus "b:c" — both spell session "a:b:c:..."
        path, clips, _ = catalog_path
        with VideoDatabase(path) as db:
            ok = MultiClipQuerySession(db, clips, "accident", user_id="a")
            assert ok.session_id.split(":", 1)[0] == "a"


class TestSessionRegistry:
    def test_roundtrip_and_upsert(self, tmp_path):
        path = str(tmp_path / "cat.sqlite")
        rec = SessionRecord(session_id="u:merged:a+b:accident",
                            user_id="u", corpus_id="merged:a+b",
                            event_name="accident", clip_ids=("a", "b"),
                            top_k=5, params={"nominator": "ivf"})
        with VideoDatabase(path) as db:
            db.register_session(rec)
            got = db.session_record(rec.session_id)
            assert got.clip_ids == ("a", "b")
            assert got.params == {"nominator": "ivf"}
            created = got.created_at
            db.register_session(SessionRecord(
                session_id=rec.session_id, user_id="u",
                corpus_id=rec.corpus_id, event_name="accident",
                clip_ids=("a", "b"), top_k=9))
            again = db.session_record(rec.session_id)
            assert again.top_k == 9
            assert again.created_at == created  # upsert keeps birth time
            assert len(db.session_records()) == 1

    def test_missing_record_raises(self, tmp_path):
        with VideoDatabase(str(tmp_path / "cat.sqlite")) as db:
            with pytest.raises(StorageError):
                db.session_record("nope")


def _error_name(call):
    """The name of the exception ``call()`` raises, or ``None``."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - asserted by the caller
        return type(exc).__name__
    return None


class TestSharedCatalog:
    """One ``VideoDatabase`` shared by threads, each on its own
    connection."""

    def test_service_rejects_memory_db(self):
        with pytest.raises(ConfigurationError):
            RetrievalService(":memory:")

    def test_one_connection_per_thread(self, tmp_path):
        path = str(tmp_path / "cat.sqlite")
        with VideoDatabase(path) as db:
            seen = {}

            def probe(name):
                db.add_labels(_labels(0, user=name))
                seen[name] = db._conn

            threads = [threading.Thread(target=probe, args=(f"u{i}",))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            conns = [*seen.values(), db._conn]
            assert len({id(c) for c in conns}) == 4
            for name in seen:
                assert len(db.labels("merged:a+b", "accident", name)) == 3

    def test_memory_catalog_keeps_one_connection(self):
        with VideoDatabase(":memory:") as db:
            db.add_labels(_labels(0))
            seen = {}

            def probe():
                seen["conn"] = db._conn
                seen["rows"] = len(db.labels("merged:a+b", "accident",
                                             "ana"))

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert seen == {"conn": db._conn, "rows": 3}

    def test_close_from_another_thread_fails_every_later_call(
            self, tmp_path):
        db = VideoDatabase(str(tmp_path / "cat.sqlite"))
        db.add_labels(_labels(0))
        record = SessionRecord(
            session_id="ana:merged:a+b:accident", user_id="ana",
            corpus_id="merged:a+b", event_name="accident",
            clip_ids=("a", "b"))
        calls = [
            lambda: db.labels("merged:a+b", "accident", "ana"),
            lambda: db.add_labels(_labels(1)),
            lambda: db.add_labels(_labels(1), expect_round=1),
            lambda: db.register_session(record),
            lambda: db.session_records(),
            lambda: db.clips(),
        ]
        touched, closed = threading.Event(), threading.Event()
        errors = {}

        def worker(name, touch):
            if touch:
                db.labels("merged:a+b", "accident", "ana")
                touched.set()
            closed.wait(timeout=30)
            errors[name] = [_error_name(call) for call in calls]

        workers = [threading.Thread(target=worker, args=("touched", True)),
                   threading.Thread(target=worker, args=("untouched", False))]
        for t in workers:
            t.start()
        assert touched.wait(timeout=30)
        closer = threading.Thread(target=db.close)
        closer.start()
        closer.join(timeout=30)
        closed.set()
        for t in workers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in [closer, *workers])
        errors["constructing"] = [_error_name(call) for call in calls]
        assert errors == {name: ["StorageError"] * len(calls)
                          for name in ("touched", "untouched",
                                       "constructing")}

    def test_add_dataset_bumps_the_version_other_threads_read(
            self, catalog_path):
        path, clips, _truths = catalog_path
        with VideoDatabase(path) as db:
            dataset = db.dataset(clips[0], "accident")
            before = db.metadata_version
            writer = threading.Thread(target=db.add_dataset,
                                      args=(dataset,))
            writer.start()
            writer.join(timeout=30)
            assert not writer.is_alive()
            assert db.metadata_version == before + 1

    def test_contended_writes_lose_nothing(self, catalog_path):
        """More threads than cores, switching often: every version bump
        and every guarded label round lands exactly once."""
        path, clips, _truths = catalog_path
        n_threads, n_rounds = 8, 20
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with VideoDatabase(path) as db:
                before = db.metadata_version
                errors = []

                def work(user):
                    try:
                        for r in range(n_rounds):
                            db.add_tracks(clips[0], [])  # bumps the version
                            db.add_labels(_labels(r, user=user),
                                          expect_round=r)
                    except Exception as exc:  # noqa: BLE001 - asserted
                        errors.append(exc)

                users = [f"w{i}" for i in range(n_threads)]
                threads = [threading.Thread(target=work, args=(u,))
                           for u in users]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors
                assert db.metadata_version == before + n_threads * n_rounds
                for user in users:
                    rounds = {r.round_index for r in
                              db.labels("merged:a+b", "accident", user)}
                    assert rounds == set(range(n_rounds))
        finally:
            sys.setswitchinterval(previous)


class TestConcurrentWorkers:
    """Satellite 4: threads feeding/reading one WAL catalog."""

    def test_distinct_sessions_interleave_cleanly(self, catalog_path):
        path, clips, truths = catalog_path
        oracle = MultiClipOracle(truths)
        shared = VideoDatabase(path)
        errors = []

        def run_user(user):
            try:
                session = MultiClipQuerySession(
                    shared, clips, "accident", user_id=user, top_k=6,
                    ledger=False)
                for _ in range(2):
                    bags = [session.dataset.bag_by_id(i)
                            for i in session.results()]
                    session.feed(oracle.label_bags(bags))
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append((user, exc))

        users = [f"worker{i}" for i in range(4)]
        threads = [threading.Thread(target=run_user, args=(u,))
                   for u in users]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not [e for e in errors
                    if isinstance(e[1], DatabaseBusyError)], errors
        assert not errors, errors
        # every thread's history replays to the same state serially
        with VideoDatabase(path) as db:
            for user in users:
                replay = MultiClipQuerySession(db, clips, "accident",
                                               user_id=user, top_k=6)
                assert replay.round_index == 2
        shared.close()
