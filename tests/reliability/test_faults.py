"""Deterministic fault injection: plans, seams, and real error types.

The harness's whole value is determinism — the same seed must fire the
same faults on the same calls, run after run — and fidelity: injected
faults must surface through the production error taxonomy
(IntegrityError from the store's own checksum path, DatabaseBusyError
from the catalog boundary), not as synthetic stand-ins.
"""

import sqlite3

import pytest

from repro.db.database import VideoDatabase
from repro.db.schema import ClipRecord
from repro.errors import (
    ConfigurationError,
    DatabaseBusyError,
    IntegrityError,
    RetryableError,
    ShardUnavailableError,
)
from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.pipeline.store import DiskArtifactStore, MemoryArtifactStore
from repro.reliability import FaultInjector, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def fresh_telemetry():
    previous = set_telemetry(Telemetry())
    yield
    set_telemetry(previous)


def _clip_record(clip_id="clip-1"):
    return ClipRecord(clip_id=clip_id, location="I-4", camera="cam-0",
                      start_time="", fps=25.0, n_frames=100,
                      width=320, height=240)


class TestFaultPlan:
    def test_same_seed_replays_identical_schedule(self):
        def schedule(seed):
            plan = FaultPlan([FaultRule(op="store.load", kind="io-error",
                                        rate=0.3)], seed=seed)
            return [plan.decide("store.load", "k", i, {}) is not None
                    for i in range(1, 200)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        # Rate is honored in the long run, not just vacuously 0 or 1.
        fired = sum(schedule(7))
        assert 30 < fired < 90

    def test_explicit_calls_always_fire(self):
        plan = FaultPlan([FaultRule(op="shard.load", kind="io-error",
                                    calls=(2, 5))])
        hits = [i for i in range(1, 8)
                if plan.decide("shard.load", "b", i, {}) is not None]
        assert hits == [2, 5]

    def test_after_skips_warmup_and_limit_caps(self):
        plan = FaultPlan([FaultRule(op="db.execute", kind="busy",
                                    rate=1.0, after=3, limit=2)])
        fired = {}
        hits = []
        for i in range(1, 10):
            rule = plan.decide("db.execute", "", i, fired)
            if rule is not None:
                fired[0] = fired.get(0, 0) + 1
                hits.append(i)
        assert hits == [4, 5]  # warm-up honored, then capped at 2

    def test_key_substring_filters(self):
        plan = FaultPlan([FaultRule(op="store.load", kind="io-error",
                                    rate=1.0, key_substring="bad")])
        assert plan.decide("store.load", "good-key", 1, {}) is None
        assert plan.decide("store.load", "bad-key", 1, {}) is not None

    def test_first_matching_rule_wins(self):
        plan = FaultPlan([
            FaultRule(op="store.load", kind="latency", rate=1.0,
                      key_substring="slow"),
            FaultRule(op="store.load", kind="io-error", rate=1.0),
        ])
        assert plan.decide("store.load", "slow-9", 1, {}).kind == "latency"
        assert plan.decide("store.load", "other", 1, {}).kind == "io-error"

    @pytest.mark.parametrize("kwargs", [
        {"op": "nope", "kind": "busy"},
        {"op": "store.load", "kind": "segfault"},
        {"op": "store.load", "kind": "busy", "rate": 1.5},
        {"op": "store.load", "kind": "busy", "limit": -1},
        {"op": "store.load", "kind": "latency", "latency_s": -0.1},
    ])
    def test_rule_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultRule(**kwargs)


class TestInjectorCore:
    def test_disabled_injector_passes_everything(self):
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="store.load", kind="io-error", rate=1.0)]))
        injector.enabled = False
        assert injector.check("store.load", key="k") is None
        assert injector.injected == []

    def test_injected_log_and_counter(self):
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="store.save", kind="io-error", calls=(2,))]))
        assert injector.check("store.save", key="a") is None
        with pytest.raises(OSError):
            injector.check("store.save", key="b")
        assert [(f.op, f.key, f.call_index, f.kind)
                for f in injector.injected] \
            == [("store.save", "b", 2, "io-error")]
        assert injector.counts() == {"store.save": 2}
        assert get_telemetry().counter("faults.injected").value(
            op="store.save", kind="io-error") == 1

    def test_rules_index_only_the_calls_they_match(self):
        """Calls outside a rule's key filter never move its schedule:
        ``calls``, ``after`` and ``rate`` read the rule's match index."""
        def schedule(unmatched_between):
            injector = FaultInjector(FaultPlan([
                FaultRule(op="db.execute", kind="busy", calls=(2,),
                          key_substring="FROM bags"),
                FaultRule(op="db.execute", kind="busy", rate=0.5,
                          after=1, key_substring="FROM instances"),
            ], seed=3))
            hits = []
            for n in range(1, 41):
                for _ in range(unmatched_between):
                    injector.check("db.execute", key="SELECT 1")
                key = "FROM bags" if n % 2 else "FROM instances"
                try:
                    injector.check("db.execute", key=key)
                except sqlite3.OperationalError:
                    hits.append(n)
            return hits

        hits = schedule(0)
        assert schedule(1) == schedule(3) == hits
        # The second "FROM bags" call is call 3; the first "FROM
        # instances" call (call 2) is the skipped warm-up.
        assert [n for n in hits if n % 2] == [3]
        assert 2 not in hits
        assert 3 <= len(hits) - 1 <= 17

    def test_latency_uses_injected_sleep(self):
        naps = []
        injector = FaultInjector(
            FaultPlan([FaultRule(op="store.has", kind="latency",
                                 rate=1.0, latency_s=0.25)]),
            sleep=naps.append)
        assert injector.check("store.has") == "latency"
        assert naps == [0.25]


class TestStoreSeam:
    def test_corrupt_flips_real_bytes_and_store_quarantines(self, tmp_path):
        """The production checksum/quarantine path fires, not a mock."""
        store = DiskArtifactStore(tmp_path / "store")
        store.save("deadbeef", {"stage": "windows", "x": [1, 2, 3]})
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="store.load", kind="corrupt", calls=(1,))]))
        faulty = injector.wrap_artifact_store(store)
        with pytest.raises(IntegrityError, match="checksum-mismatch"):
            faulty.load("deadbeef")
        assert store.quarantined == [
            {"key": "deadbeef", "problem": "checksum-mismatch"}]
        # The blob was moved aside: the next probe is a clean miss and
        # the pipeline recomputes instead of serving corruption.
        assert not faulty.has("deadbeef")
        store.save("deadbeef", {"stage": "windows", "x": [1, 2, 3]})
        assert faulty.load("deadbeef")["x"] == [1, 2, 3]

    def test_corrupt_on_memory_store_raises_directly(self):
        store = MemoryArtifactStore()
        store.save("k", 42)
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="store.load", kind="corrupt", calls=(1,))]))
        faulty = injector.wrap_artifact_store(store)
        with pytest.raises(IntegrityError, match="injected corruption"):
            faulty.load("k")
        assert faulty.load("k") == 42  # only call 1 faults

    def test_io_error_on_save(self, tmp_path):
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="store.save", kind="io-error", rate=1.0)]))
        faulty = injector.wrap_artifact_store(
            DiskArtifactStore(tmp_path / "store"))
        with pytest.raises(OSError, match="injected I/O error"):
            faulty.save("k", 1)
        assert faulty.keys() == []


class TestShardSeam:
    def test_wrapped_loader_feeds_quarantine_machinery(self):
        from repro.core.sharded import ShardedCorpus
        from tests.core.test_sharded import _clip, _specs

        specs = _specs([_clip("a", 6, seed=1), _clip("b", 6, seed=2)])
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="shard.load", kind="io-error", rate=1.0,
                       key_substring="b", limit=1)]))
        corpus = ShardedCorpus(injector.wrap_shard_specs(specs),
                               corpus_id="merged:faulty")
        assert corpus.shard("a").clip_id == "a"  # untouched shard loads
        with pytest.raises(ShardUnavailableError):
            corpus.shard("b")
        assert corpus.quarantined_clip_ids == ["b"]


class TestDbSeam:
    def test_busy_fault_surfaces_as_retryable_busy_error(self):
        injector = FaultInjector(FaultPlan(
            [FaultRule(op="db.execute", kind="busy", rate=1.0,
                       key_substring="INSERT OR REPLACE INTO clips")]))
        db = VideoDatabase(connection_factory=injector.connect)
        with pytest.raises(DatabaseBusyError) as err:
            db.add_clip(_clip_record())
        assert isinstance(err.value, RetryableError)
        assert "locked" in str(err.value)
        # Reads that don't match the rule still work.
        assert db.clips() == []

    def test_zero_rules_behaves_like_plain_sqlite(self):
        injector = FaultInjector(FaultPlan())
        db = VideoDatabase(connection_factory=injector.connect)
        db.add_clip(_clip_record())
        assert [c.clip_id for c in db.clips()] == ["clip-1"]
        assert injector.injected == []
        assert injector.counts().get("db.execute", 0) > 0
