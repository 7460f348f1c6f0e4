"""The instrumented hot paths actually record what they claim to.

Each test drives a real subsystem (pipeline runner, artifact store,
Gram cache, retry policy, task batches, the RF loop) and asserts on the
telemetry it left behind — counters mirror the pre-existing ad-hoc
stats, spans carry the right attributes, warning events fire.
"""

import numpy as np
import pytest

from repro.core import (
    MILRetrievalEngine,
    OracleUser,
    RetrievalSession,
    merge_datasets,
)
from repro.core.sharded import IVFNominator, ShardedRetrievalEngine
from repro.errors import RetryableError
from repro.eval import build_artifacts
from repro.pipeline import DiskArtifactStore
from repro.reliability import RetryPolicy, run_tasks
from repro.sim import tunnel
from repro.svm.gram_cache import GramCache
from repro.svm.kernels import RBFKernel
from tests.core.conftest import make_toy
from tests.core.test_sharded import _clip, _corpus, _spiked_global_ids


def _sim():
    return tunnel(n_frames=300, seed=5, n_wall_crashes=1,
                  n_sudden_stops=1)


class TestPipelineCounters:
    def test_cold_then_warm_run_counters(self, fresh_telemetry, tmp_path):
        t = fresh_telemetry
        store = DiskArtifactStore(tmp_path / "store")
        build_artifacts(_sim(), mode="oracle", store=store)
        misses = t.counter("pipeline.stage.cache_miss").total()
        assert misses >= 1
        assert t.counter("pipeline.stage.cache_hit").total() == 0

        build_artifacts(_sim(), mode="oracle", store=store)
        # The warm run replays every cacheable stage, computing none.
        assert t.counter("pipeline.stage.cache_hit").total() == misses
        assert t.counter("pipeline.stage.cache_miss").total() == misses

    def test_stage_spans_nest_under_pipeline_run(self, fresh_telemetry):
        t = fresh_telemetry
        build_artifacts(_sim(), mode="oracle")
        by_name = {}
        for sp in t.spans:
            by_name.setdefault(sp.name, []).append(sp)
        (run,) = by_name["pipeline.run"]
        stages = by_name["pipeline.stage"]
        assert stages and all(s.parent_id == run.span_id for s in stages)
        assert all("stage" in s.attrs for s in stages)
        assert run.attrs["mode"] == "oracle"


class TestStoreQuarantine:
    def test_quarantine_counts_and_warns(self, fresh_telemetry, tmp_path):
        t = fresh_telemetry
        store = DiskArtifactStore(tmp_path / "store")
        build_artifacts(_sim(), mode="oracle", store=store)
        key = store.keys()[0]
        store._blob(key).write_bytes(b"")
        assert store.has(key) is False
        assert t.counter("store.quarantined").value(
            reason="size-mismatch") == 1
        warning = [e for e in t.events
                   if e["name"] == "store.quarantined"]
        assert warning and warning[0]["level"] == "warning"
        assert warning[0]["key"] == key
        assert warning[0]["reason"] == "size-mismatch"


class TestGramCacheCounters:
    def test_reuse_mirrors_hit_miss_stats(self, fresh_telemetry):
        t = fresh_telemetry
        x = np.random.default_rng(0).normal(size=(40, 7))
        cache = GramCache(x)
        kernel = RBFKernel(0.5)
        cache.ensure(kernel, [1, 2, 3], np.array([1, 2, 3]))
        ids = [1, 2, 3, 8, 9]
        cache.ensure(kernel, ids, np.asarray(ids))
        assert t.counter("svm.gram.columns_computed").total() \
            == cache.misses == 5
        assert t.counter("svm.gram.columns_reused").total() \
            == cache.hits == 3


class TestShardedNominationCounters:
    def test_pruned_ivf_round_counts_and_spans(self, fresh_telemetry):
        """One pruned IVF round over two small clips: the ranking stays a
        permutation, and the index and pruning counters and the
        probe/rank spans are recorded."""
        t = fresh_telemetry
        datasets = [_clip(f"cam{i}", 48, seed=100 + i, spike_every=12,
                          window=6, features=4, instances_per_bag=4)
                    for i in range(2)]
        merged = merge_datasets(datasets, merged_id="merged:test")
        relevant = _spiked_global_ids(merged)
        engine = ShardedRetrievalEngine(
            _corpus(datasets), candidates_per_shard=8,
            nominator=IVFNominator(n_cells=8, nprobe=2))
        engine.feed({b: b in relevant for b in engine.top_k(10)})
        ranking = engine.rank()
        assert sorted(ranking) == list(range(len(merged)))
        for name in ("index.builds", "index.cells_probed",
                     "index.bags_nominated", "sharded.bags_scored",
                     "sharded.bags_pruned"):
            assert t.counter(name).total() > 0, name
        names = {s.name for s in t.spans}
        assert {"index.probe", "sharded.rank"} <= names


class TestRetryPolicyClock:
    def test_injected_clock_measures_backoff(self, fresh_telemetry):
        t = fresh_telemetry
        ticks = iter(0.5 * n for n in range(1, 100))
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0,
                             clock=lambda: next(ticks))
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RetryableError("transient")
            return "ok"

        assert policy.run(flaky, sleep=lambda s: None) == "ok"
        assert t.counter("reliability.task.retries").value(
            reason="RetryableError") == 2
        # Each retry "slept" one 0.5s clock step -> 1000ms total.
        series = t.histogram(
            "reliability.retry.backoff_ms").snapshot()["series"]
        assert series[0]["count"] == 1
        assert series[0]["sum"] == pytest.approx(1000.0)

    def test_clock_excluded_from_policy_identity(self):
        default = RetryPolicy(max_attempts=2)
        injected = RetryPolicy(max_attempts=2, clock=lambda: 0.0)
        assert default == injected
        assert hash(default) == hash(injected)

    def test_no_retry_records_no_backoff(self, fresh_telemetry):
        RetryPolicy(max_attempts=1).run(lambda: 1)
        series = fresh_telemetry.histogram(
            "reliability.retry.backoff_ms").snapshot()["series"]
        assert series == []


class TestBatchCounters:
    def test_serial_retries_and_failures_counted(self, fresh_telemetry):
        t = fresh_telemetry
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

        def fn(task):
            if task == "bad":
                raise RetryableError("always")
            return task

        batch = run_tasks(fn, ["ok", "bad"], max_workers=1, retry=retry,
                          strict=False)
        assert batch.failed_indices == [1]
        assert t.counter("reliability.task.retries").value(
            reason="RetryableError") == 1
        assert t.counter("reliability.task.failures").value(
            reason="RetryableError") == 1

    def test_batch_span_records_outcome(self, fresh_telemetry):
        run_tasks(lambda x: x, [1, 2, 3], max_workers=1)
        (sp,) = [s for s in fresh_telemetry.spans
                 if s.name == "reliability.batch"]
        assert sp.attrs["tasks"] == 3
        assert sp.attrs["failed"] == 0


class TestFeedbackLoopMetrics:
    def test_rounds_record_latency_and_ranking_size(self, fresh_telemetry):
        t = fresh_telemetry
        ds, gt = make_toy()
        session = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10)
        session.run(2)
        series = t.histogram("rf.round.latency_ms").snapshot()["series"]
        assert series[0]["count"] == 2
        assert t.gauge("rf.round.ranking_size").value() == 10
        rounds = [s for s in t.spans if s.name == "rf.round"]
        assert [s.attrs["round"] for s in rounds] == [0, 1]
        assert all(s.attrs["returned"] == 10 for s in rounds)
