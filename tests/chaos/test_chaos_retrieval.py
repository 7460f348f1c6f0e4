"""Chaos suite: multi-clip retrieval under seeded, injected faults.

The acceptance contract (ISSUE 8): under a deterministic fault plan —
SQLITE_BUSY on shard loads while segments are being appended, blob
corruption in the artifact cache — a degraded-mode
:class:`MultiClipQuerySession` must **never crash and never silently
return an incomplete ranking**: every affected round is flagged
degraded with an accurate coverage report, quarantined shards rejoin
within the reprobe schedule once the faults clear, and a zero-fault
plan is byte-identical to running without the injector at all.

Everything here replays exactly: the plans are seeded, the quarantine
clock is fake, and retry jitter is zero.
"""

import pytest

from repro.db import ClipRecord, MultiClipQuerySession, VideoDatabase
from repro.errors import ShardUnavailableError
from repro.obs import get_telemetry
from repro.reliability import FaultInjector, FaultPlan, FaultRule, RetryPolicy

from tests.core.test_sharded import _clip
from tests.core.test_sharded_degraded import FakeClock

#: Substring unique to the instance SELECT in ``VideoDatabase.dataset``
#: — the statement every shard load runs, and nothing else does.
SHARD_LOAD_SQL = "track_id FROM instances"

CLIPS = (("a", 12, 1), ("b", 9, 2), ("c", 15, 3))
EVENT = "accident"


def _split(dataset, keep):
    """First ``keep`` bags now, the rest as a streamed delta."""
    initial = type(dataset)(
        clip_id=dataset.clip_id, event_name=dataset.event_name,
        feature_names=dataset.feature_names,
        window_size=dataset.window_size,
        sampling_rate=dataset.sampling_rate, bags=list(dataset.bags[:keep]))
    delta = type(dataset)(
        clip_id=dataset.clip_id, event_name=dataset.event_name,
        feature_names=dataset.feature_names,
        window_size=dataset.window_size,
        sampling_rate=dataset.sampling_rate, bags=list(dataset.bags[keep:]))
    return initial, delta


def _seed_db(db, *, hold_back_clip=None, hold_back=3):
    """Store the three toy clips; optionally hold back a streaming delta."""
    deltas = {}
    for clip_id, n_bags, seed in CLIPS:
        dataset = _clip(clip_id, n_bags, seed=seed)
        db.add_clip(ClipRecord(clip_id=clip_id, fps=25.0,
                               n_frames=n_bags * 20, width=320, height=240))
        if clip_id == hold_back_clip:
            dataset, deltas[clip_id] = _split(dataset, n_bags - hold_back)
        db.add_dataset(dataset)
    return deltas


def _session(db, **kwargs):
    kwargs.setdefault("retry_policy",
                      RetryPolicy(base_delay=1.0, backoff=2.0,
                                  max_delay=8.0, jitter=0.0))
    return MultiClipQuerySession(db, [c[0] for c in CLIPS], EVENT,
                                 user_id="chaos", top_k=10, **kwargs)


def _bag_ids_of(corpus, clip_id):
    lo = 0
    for spec in corpus.specs:
        if spec.clip_id == clip_id:
            return set(range(lo, lo + spec.n_bags))
        lo += spec.n_bags
    raise AssertionError(clip_id)


def _coverage_is_accurate(session, ids):
    """The coverage report must account for every bag, exactly."""
    cov = session.last_coverage
    corpus = session.engine.corpus
    assert cov is not None
    assert cov.shards_total == len(CLIPS)
    assert cov.shards_total == len(cov.shards_served) \
        + len(cov.shards_skipped)
    assert cov.bags_total == sum(spec.n_bags for spec in corpus.specs)
    assert cov.bags_missing == sum(o.n_bags for o in cov.shards_skipped)
    missing = {
        bag_id for clip in cov.missing_clip_ids
        for bag_id in _bag_ids_of(corpus, clip)}
    assert len(missing) == cov.bags_missing
    assert not missing & set(ids)
    return cov


class TestChaosSession:
    def test_degraded_session_survives_busy_storms_and_recovers(
            self, tmp_path):
        """Rounds of feedback + concurrent appends under SQLITE_BUSY on
        shard loads: no crash, honest coverage, full recovery."""
        injector = FaultInjector(FaultPlan([
            # Shard loads hit lock contention for a while, then it clears.
            FaultRule(op="db.execute", kind="busy", rate=0.7, limit=4,
                      key_substring=SHARD_LOAD_SQL),
        ], seed=42))
        clock = FakeClock()
        db = VideoDatabase(tmp_path / "v.db",
                           connection_factory=injector.connect)
        deltas = _seed_db(db, hold_back_clip="c")
        session = _session(db, failure_policy="degraded", clock=clock)

        degraded_rounds = 0
        for round_no in range(8):
            ids = session.results()
            cov = session.last_coverage
            _coverage_is_accurate(session, ids)
            if cov.degraded:
                degraded_rounds += 1
            labels = {b: (b % 3 == 0) for b in ids[:3]}
            if labels:  # a fully-dark round serves nothing to label
                session.feed(labels)
            if round_no == 2 and deltas:
                # Ingest-while-querying: the held-back segment lands
                # mid-session; the next rounds absorb it.
                db.append_dataset(deltas.pop("c"), segment=(1, 180, 299))
            clock.advance(1.5)

        # The plan injected real faults and the session absorbed them.
        assert injector.injected
        assert degraded_rounds >= 1
        obs = get_telemetry()
        assert obs.counter("sharded.shard_failures").total() >= 1
        # Only freshly-scored rounds bump the counter (cached rounds
        # re-report coverage without re-scoring), so it is bounded by
        # what the loop observed.
        assert 1 <= obs.counter("sharded.degraded_rounds").total() \
            <= degraded_rounds

        # Faults are exhausted (limit=4): advance past the worst backoff
        # and every shard must rejoin within one reprobe.
        clock.advance(8.0)
        session.results()
        cov = session.last_coverage
        assert not cov.degraded
        assert cov.shards_served == ("a", "b", "c")
        assert cov.bags_total == sum(c[1] for c in CLIPS)
        assert obs.counter("sharded.shard_recoveries").total() >= 1
        db.close()

    def test_strict_session_surfaces_typed_error_not_sqlite(self, tmp_path):
        injector = FaultInjector(FaultPlan([
            FaultRule(op="db.execute", kind="busy", rate=1.0, limit=1,
                      key_substring=SHARD_LOAD_SQL),
        ], seed=7))
        db = VideoDatabase(tmp_path / "v.db",
                           connection_factory=injector.connect)
        _seed_db(db)
        session = _session(db, failure_policy="strict", clock=FakeClock())
        with pytest.raises(ShardUnavailableError) as err:
            session.results()
        # The boundary is typed: no raw sqlite3 error escapes.
        assert err.value.clip_id in {c[0] for c in CLIPS}
        db.close()

    def test_zero_fault_plan_is_byte_identical_to_no_injector(
            self, tmp_path):
        """An empty plan through the whole stack changes nothing."""
        injector = FaultInjector(FaultPlan(seed=0))
        chaos_db = VideoDatabase(tmp_path / "chaos.db",
                                 connection_factory=injector.connect)
        plain_db = VideoDatabase(tmp_path / "plain.db")
        _seed_db(chaos_db)
        _seed_db(plain_db)
        chaos = _session(chaos_db, failure_policy="degraded",
                         clock=FakeClock())
        plain = MultiClipQuerySession(plain_db, [c[0] for c in CLIPS],
                                      EVENT, user_id="chaos", top_k=10)
        for _ in range(4):
            ids = chaos.results()
            cov = chaos.last_coverage
            assert not cov.degraded
            assert ids == plain.results()
            labels = {b: (b % 3 == 0) for b in ids[:3]}
            chaos.feed(labels)
            plain.feed(labels)
        assert injector.injected == []
        chaos_db.close()
        plain_db.close()


class TestChaosIngest:
    def test_ingest_replay_selfheals_injected_blob_corruption(
            self, tmp_path, small_intersection):
        """Corrupting cached segment blobs mid-replay exercises the
        store's production checksum/quarantine/recompute path — the
        second ingest still lands byte-identically."""
        from repro.db import StreamingIngest
        from repro.pipeline import DiskArtifactStore

        store = DiskArtifactStore(tmp_path / "store")
        db1 = VideoDatabase()
        StreamingIngest(db1, small_intersection, segment_frames=150,
                        store=store).run()
        reference = db1.dataset(small_intersection.name, EVENT)

        injector = FaultInjector(FaultPlan([
            FaultRule(op="store.load", kind="corrupt", calls=(2,)),
        ], seed=3))
        faulty_store = injector.wrap_artifact_store(store)
        db2 = VideoDatabase()
        ingest = StreamingIngest(db2, small_intersection,
                                 segment_frames=150, store=faulty_store)
        ingest.run()
        replayed = db2.dataset(small_intersection.name, EVENT)

        assert [b.bag_id for b in replayed.bags] == \
            [b.bag_id for b in reference.bags]
        assert [i.instance_id for i in replayed.all_instances()] == \
            [i.instance_id for i in reference.all_instances()]
        # The corruption really happened and was really quarantined.
        assert [f.kind for f in injector.injected] == ["corrupt"]
        assert len(store.quarantined) == 1
        assert get_telemetry().counter("store.quarantined").total() == 1
