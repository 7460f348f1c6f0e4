"""Session-concurrency regressions: the lost-update race, ambiguous
session ids, and multi-worker access to one WAL catalog."""

import json
import os
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiClipOracle
from repro.db import (
    ClipRecord,
    MultiClipQuerySession,
    SessionRecord,
    VideoDatabase,
)
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


#: The ``labels`` layouts written before the clustered one, kept here as
#: the reference the rebuild and the layout-equivalence test check
#: against: a rowid table keyed by bag id before tenant, with the round
#: guard's index (``head``) or the older tenant-prefix index (``query``).
_ROWID_LABELS = """
CREATE TABLE labels (
    clip_id     TEXT NOT NULL,
    event       TEXT NOT NULL,
    bag_id      INTEGER NOT NULL,
    user_id     TEXT NOT NULL,
    round_index INTEGER NOT NULL,
    relevant    INTEGER NOT NULL,
    PRIMARY KEY (clip_id, event, bag_id, user_id, round_index)
);
"""
OLD_LABEL_LAYOUTS = {
    "head": _ROWID_LABELS + """
CREATE INDEX idx_labels_head
    ON labels (clip_id, event, user_id, round_index, bag_id, relevant);
""",
    "query": _ROWID_LABELS + """
CREATE INDEX idx_labels_query
    ON labels (clip_id, event, user_id);
""",
}


def rewind_labels(conn, layout) -> None:
    """Give a catalog's ``labels`` table an earlier layout, rows kept."""
    conn.executescript(
        "ALTER TABLE labels RENAME TO labels_now;"
        + OLD_LABEL_LAYOUTS[layout]
        + "INSERT INTO labels SELECT * FROM labels_now;"
        " DROP TABLE labels_now; VACUUM;")


def old_layout_catalog(path, layout, labels) -> None:
    """A file-backed catalog holding ``labels`` in an earlier layout."""
    with VideoDatabase(path) as db:
        db.add_labels(labels)
    conn = connect_sqlite(str(path))
    try:
        rewind_labels(conn, layout)
    finally:
        conn.close()


def label_layout(path) -> tuple[str, set[str]]:
    """``labels``' layout (``rowid``/``clustered``) and its indexes."""
    conn = connect_sqlite(str(path))
    try:
        sql = conn.execute("SELECT sql FROM sqlite_master"
                           " WHERE type='table' AND name='labels'"
                           ).fetchone()[0]
        indexes = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type='index' AND tbl_name='labels'")}
    finally:
        conn.close()
    return ("clustered" if "WITHOUT ROWID" in sql else "rowid"), indexes


_CORPORA = ("a", "merged:a+b")
_EVENTS = ("accident", "stall")
_TENANTS = ("ana", "bob", "cy")


def label_history() -> list[LabelRecord]:
    """Four rounds of five labels per tenant and corpus, with bags
    relabelled across rounds."""
    return [LabelRecord(clip_id=corpus, event_name="accident",
                        bag_id=(3 * r + b) % 7, user_id=user,
                        round_index=r, relevant=(b + u + r) % 3 == 0)
            for corpus in _CORPORA for u, user in enumerate(_TENANTS)
            for r in range(4) for b in range(5)]


_RECORD = st.builds(
    LabelRecord, clip_id=st.sampled_from(_CORPORA),
    event_name=st.sampled_from(_EVENTS), bag_id=st.integers(0, 5),
    user_id=st.sampled_from(_TENANTS), round_index=st.integers(0, 3),
    relevant=st.booleans())
#: One ``add_labels`` call: its records and its guard (unguarded, the
#: stored next round, or a fixed round that may be stale or ahead).
_BATCH = st.tuples(st.lists(_RECORD, min_size=1, max_size=8),
                   st.one_of(st.none(), st.just("next"),
                             st.integers(0, 4)))


def _heads():
    return [(c, e, u) for c in _CORPORA for e in _EVENTS for u in _TENANTS]


def _next_round(db, head) -> int:
    rounds = [r.round_index for r in db.labels(
        head.clip_id, head.event_name, head.user_id)]
    return max(rounds) + 1 if rounds else 0


def _guarded_write(db, records, expect_round):
    """``add_labels``' outcome: committed, or the guard's stored round."""
    try:
        db.add_labels(records, expect_round=expect_round)
    except SessionConflictError as exc:
        return "conflict", exc.stored_next_round
    return "committed", None


def label_reads(db) -> dict:
    """Every ``labels()`` read of the test corpora, without a user
    (key ``None``) and per tenant."""
    reads = {None: [r for c in _CORPORA for e in _EVENTS
                    for r in db.labels(c, e)]}
    for c, e, u in _heads():
        reads[c, e, u] = db.labels(c, e, u)
    return reads


def _exported_labels(db, clip_id, tmp) -> Counter:
    path = Path(tmp) / "bundle.npz"
    db.export_clip(clip_id, path)
    with np.load(path) as bundle:
        manifest = json.loads(bytes(bundle["manifest"]).decode("utf-8"))
    return Counter(tuple(row) for row in manifest["labels"])


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
    other tenant's labels on the corpus.  Since the table is clustered on
    the tenant's history, the key itself is the guard's index, and a
    catalog in an earlier layout is rebuilt once, on a checked open."""

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
        assert ("PRIMARY KEY "
                "(clip_id=? AND event=? AND user_id=?)") in plan[0], plan

    def test_reopen_replaces_the_old_index(self, tmp_path):
        history = label_history()
        for layout in OLD_LABEL_LAYOUTS:
            path = tmp_path / f"{layout}.sqlite"
            old_layout_catalog(path, layout, history)
            old = ("rowid", {"sqlite_autoindex_labels_1",
                             f"idx_labels_{layout}"})
            assert label_layout(path) == old
            with VideoDatabase(path, quick_check=False) as db:
                old_reads = label_reads(db)
            assert label_layout(path) == old
            with VideoDatabase(path) as db:
                assert label_reads(db) == old_reads
                assert len(old_reads[None]) == len(history)
                with pytest.raises(SessionConflictError) as err:
                    db.add_labels(_labels(1, user="bob"), expect_round=1)
                assert err.value.stored_next_round == 4
                db.add_labels(_labels(4, user="bob"), expect_round=4)
            assert label_layout(path) == ("clustered", set())

    def test_concurrent_first_opens_rebuild_once(self, tmp_path,
                                                 fresh_telemetry):
        """More threads than cores, switching often, each open their own
        catalog on one old-layout file: exactly one rebuilds it."""
        path = tmp_path / "old.sqlite"
        history = label_history()
        old_layout_catalog(path, "head", history)
        with VideoDatabase(path, quick_check=False) as db:
            old_reads = label_reads(db)
        n_threads = (os.cpu_count() or 1) + 2
        barrier = threading.Barrier(n_threads)
        opened, errors = [], []

        def open_catalog():
            try:
                barrier.wait(timeout=30)
                opened.append(VideoDatabase(path))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=open_catalog)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
            for db in opened:
                db.close()
        assert not errors, errors
        assert len(opened) == n_threads
        rebuilds = [e for e in fresh_telemetry.events
                    if e["name"].startswith("db.labels_cluster")]
        assert [e["name"] for e in rebuilds] == ["db.labels_clustered"]
        assert rebuilds[0]["rows"] == len(history)
        assert label_layout(path) == ("clustered", set())
        with VideoDatabase(path) as db:
            assert label_reads(db) == old_reads


class TestLabelLayoutEquivalence:
    """The same ``add_labels`` batches, sent to a catalog in an earlier
    layout and to a clustered one, read back the same everywhere."""

    @pytest.mark.parametrize("layout", sorted(OLD_LABEL_LAYOUTS))
    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(_BATCH, min_size=1, max_size=14))
    def test_layouts_agree(self, layout, batches):
        old, new = VideoDatabase(), VideoDatabase()
        rewind_labels(old._conn, layout)
        try:
            for db in (old, new):
                for corpus in _CORPORA:
                    db.add_clip(ClipRecord(clip_id=corpus, fps=25.0,
                                           n_frames=100, width=320,
                                           height=240))
            for records, guard in batches:
                expect_round = None
                if guard is not None:
                    head = records[0]
                    expect_round = (_next_round(old, head)
                                    if guard == "next" else guard)
                    records = [replace(r, clip_id=head.clip_id,
                                       event_name=head.event_name,
                                       user_id=head.user_id,
                                       round_index=expect_round)
                               for r in records]
                assert (_guarded_write(old, records, expect_round)
                        == _guarded_write(new, records, expect_round))
            assert label_reads(old) == label_reads(new)
            for corpus, event, user in _heads():
                assert (old.accumulated_labels(corpus, event, user)
                        == new.accumulated_labels(corpus, event, user))
                probe = [LabelRecord(clip_id=corpus, event_name=event,
                                     bag_id=0, user_id=user,
                                     round_index=0, relevant=True)]
                assert (_guarded_write(old, probe, -1)
                        == _guarded_write(new, probe, -1))
            with tempfile.TemporaryDirectory() as tmp:
                for corpus in _CORPORA:
                    assert (_exported_labels(old, corpus, tmp)
                            == _exported_labels(new, corpus, tmp))
        finally:
            old.close()
            new.close()


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
