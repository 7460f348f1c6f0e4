"""Streaming database ingestion: journal, exactly-once resume, live
query sessions.

A clip streamed into the database segment by segment must end up stored
exactly as the batch pipeline would store it — after a crash anywhere in
the stream, after a resume, and with no duplicate catalog rows.  An open
:class:`MultiClipQuerySession` must observe the appended bags on its
next round without being recreated.
"""

import threading

import numpy as np
import pytest

from repro.db import MultiClipQuerySession, StreamingIngest, VideoDatabase
from repro.errors import StorageError
from repro.eval import build_artifacts
from repro.pipeline import MemoryArtifactStore, PipelineConfig, PipelineRunner
from repro.vision import FrameReader

SEGMENT_FRAMES = 150  # 400-frame intersection clip -> 3 segments


@pytest.fixture(autouse=True)
def no_helper_left():
    """No stream's render-ahead helper outlives a test, failed appends
    and interrupted ingests included."""
    yield
    assert [t for t in threading.enumerate()
            if t.name == FrameReader.THREAD_NAME] == []


@pytest.fixture(scope="module")
def store():
    """Shared artifact store: segments compute once, then replay."""
    return MemoryArtifactStore()


@pytest.fixture(scope="module")
def batch(small_intersection):
    """What the whole-clip pipeline would store for the same clip."""
    return PipelineRunner(PipelineConfig()).run(small_intersection)


def stream_clip(db, sim, store, **kwargs):
    return StreamingIngest(db, sim, segment_frames=SEGMENT_FRAMES,
                           store=store, **kwargs)


def assert_stored_equals_batch(db, sim, batch):
    stored = db.dataset(sim.name, "accident")
    assert [b.bag_id for b in stored.bags] == \
        [b.bag_id for b in batch.dataset.bags]
    assert [(b.frame_lo, b.frame_hi) for b in stored.bags] == \
        [(b.frame_lo, b.frame_hi) for b in batch.dataset.bags]
    assert [i.instance_id for i in stored.all_instances()] == \
        [i.instance_id for i in batch.dataset.all_instances()]
    np.testing.assert_array_equal(stored.instance_matrix(),
                                  batch.dataset.instance_matrix())


class TestStreamingIngest:
    def test_streamed_store_equals_batch_store(self, small_intersection,
                                               store, batch):
        db = VideoDatabase()
        ingest = stream_clip(db, small_intersection, store)
        ingest.run()
        assert_stored_equals_batch(db, small_intersection, batch)
        assert len(db.track_records(small_intersection.name)) == \
            len(batch.tracks)

    def test_journal_reaches_appended_everywhere(self, small_intersection,
                                                 store):
        db = VideoDatabase()
        ingest = stream_clip(db, small_intersection, store)
        ingest.run()
        state = db.ingest_state(small_intersection.name, "accident")
        assert sorted(state) == [0, 1, 2]
        assert all(s["state"] == "appended" for s in state.values())
        log = db.ingest_log(small_intersection.name)
        # Append-only history: every segment was journalled pending
        # before anything else happened to it.
        first_seen = {}
        for row in log:
            first_seen.setdefault(row["segment_index"], row["state"])
        assert set(first_seen.values()) == {"pending"}

    def test_kill_mid_segment_resumes_exactly_once(
            self, small_intersection, store, batch, monkeypatch):
        db = VideoDatabase()
        real_append = db.append_dataset
        calls = []

        def failing_append(delta, **kwargs):
            if len(calls) == 1:
                calls.append("boom")
                raise StorageError("disk full (injected)")
            calls.append("ok")
            return real_append(delta, **kwargs)

        monkeypatch.setattr(db, "append_dataset", failing_append)
        with pytest.raises(StorageError, match="disk full"):
            stream_clip(db, small_intersection, store).run()
        state = db.ingest_state(small_intersection.name, "accident")
        assert state[0]["state"] == "appended"
        assert state[1]["state"] == "failed"
        assert "disk full" in state[1]["detail"]
        assert state[2]["state"] == "pending"

        monkeypatch.setattr(db, "append_dataset", real_append)
        resumed = stream_clip(db, small_intersection, store)
        resumed.run()
        assert resumed.segments_skipped == 1
        assert resumed.segments_appended == 2
        # The failed segment was explicitly *retried*, not skipped: its
        # latest journal row said ``failed``, and only ``appended`` rows
        # are durable.
        assert resumed.segments_retried == 1
        state = db.ingest_state(small_intersection.name, "accident")
        assert all(s["state"] == "appended" for s in state.values())
        assert_stored_equals_batch(db, small_intersection, batch)

    def test_kill_inside_append_transaction_keeps_journal_consistent(
            self, tmp_path, small_intersection, store, batch):
        """A fault *inside* the catalog transaction (between the bag
        upserts and the ``appended`` marker) must roll back atomically:
        no partial bags, no lying marker — and a fresh process resumes
        to the exact batch store."""
        from repro.reliability import FaultInjector, FaultPlan, FaultRule

        injector = FaultInjector(FaultPlan(
            [FaultRule(op="db.execute", kind="busy", rate=1.0, limit=1,
                       key_substring="INSERT OR REPLACE INTO bags")]))
        path = tmp_path / "v.db"
        db = VideoDatabase(path, connection_factory=injector.connect)
        with pytest.raises(StorageError, match="busy"):
            stream_clip(db, small_intersection, store).run()
        assert len(injector.injected) == 1

        state = db.ingest_state(small_intersection.name, "accident")
        assert state[0]["state"] == "failed"
        assert "Busy" in state[0]["detail"]
        assert state[1]["state"] == "pending"
        # The rolled-back transaction left no catalog rows behind.
        with pytest.raises(StorageError, match="no dataset"):
            db.dataset(small_intersection.name, "accident")
        db.close()

        # "Process restart": a clean connection over the same file.
        db = VideoDatabase(path)
        resumed = stream_clip(db, small_intersection, store)
        resumed.run()
        assert resumed.segments_retried == 1
        assert resumed.segments_appended == 3
        state = db.ingest_state(small_intersection.name, "accident")
        assert all(s["state"] == "appended" for s in state.values())
        assert_stored_equals_batch(db, small_intersection, batch)
        db.close()

    def test_replay_without_resume_is_idempotent(self, small_intersection,
                                                 store, batch):
        db = VideoDatabase()
        stream_clip(db, small_intersection, store).run()
        again = stream_clip(db, small_intersection, store)
        again.run(resume=False)
        assert again.segments_appended == 3
        assert again.segments_skipped == 0
        assert_stored_equals_batch(db, small_intersection, batch)

    def test_resume_skips_everything_durable(self, small_intersection,
                                             store):
        db = VideoDatabase()
        stream_clip(db, small_intersection, store).run()
        again = stream_clip(db, small_intersection, store)
        again.run()
        assert again.segments_appended == 0
        assert again.segments_skipped == 3


class TestLiveQuerySession:
    def test_open_session_observes_streamed_appends(
            self, small_tunnel, small_intersection, store):
        db = VideoDatabase()
        oracle = build_artifacts(small_tunnel, mode="oracle")
        db.ingest_simulation(small_tunnel, oracle.tracks, oracle.dataset)

        # Stream the second clip in, killing the ingest after its first
        # segment lands.
        emitted = []

        def kill_after_first(emission):
            emitted.append(emission)
            if len(emitted) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            stream_clip(db, small_intersection, store).run(
                progress=kill_after_first)
        partial = db.dataset_meta(small_intersection.name,
                                  "accident")["n_bags"]

        clip_ids = [small_intersection.name, small_tunnel.name]
        session = MultiClipQuerySession(db, clip_ids, "accident",
                                        user_id="live", top_k=10)
        assert len(session.dataset) == partial + len(oracle.dataset)
        session.feed({b: True for b in session.results()[:3]})
        version = session.engine._corpus_version

        # The ingest finishes while the session stays open ...
        stream_clip(db, small_intersection, store).run()
        full = db.dataset_meta(small_intersection.name,
                               "accident")["n_bags"]
        assert full > partial

        # ... and the very next round sees the appended bags, without
        # the session (or its engine) being recreated.
        warm = session.results()
        assert len(session.dataset) == full + len(oracle.dataset)
        assert session.engine._corpus_version > version

        fresh = MultiClipQuerySession(db, clip_ids, "accident",
                                      user_id="live", top_k=10)
        assert warm == fresh.results()
        assert session.engine.rank() == fresh.engine.rank()
