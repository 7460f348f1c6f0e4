"""Shard-as-failure-domain: quarantine, degraded coverage, recovery.

The contract under test (ISSUE 8): a shard whose storage fails is
quarantined on a deterministic backoff-and-reprobe schedule; under
``failure_policy="degraded"`` the round proceeds over the healthy
shards with an *honest* :class:`CoverageReport`, the served bags score
exactly as in the full ranking, and the shard rejoins automatically
once its loader heals.  Under ``"strict"`` (the default, and therefore
the zero-fault behavior) the typed error propagates.
"""

from itertools import islice

import pytest

from repro.core.sharded import (
    CoverageReport,
    ShardSpec,
    ShardedCorpus,
    ShardedRetrievalEngine,
)
from repro.errors import (
    ConfigurationError,
    ShardUnavailableError,
    StorageError,
)
from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.reliability import FaultInjector, FaultPlan, FaultRule, RetryPolicy

from tests.core.test_sharded import _clip, _specs


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Isolate the process-wide registry: counters asserted per-test."""
    previous = set_telemetry(Telemetry())
    yield
    set_telemetry(previous)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FlakyLoader:
    """Loader that fails with a configurable storage error on demand."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.fail = False
        self.error: Exception = StorageError("disk on fire")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.fail:
            raise self.error
        return self.dataset


def _flaky_corpus(datasets, **kwargs):
    loaders = {d.clip_id: FlakyLoader(d) for d in datasets}
    specs = [
        ShardSpec(clip_id=d.clip_id, n_bags=len(d.bags),
                  n_instances=d.n_instances, loader=loaders[d.clip_id])
        for d in datasets
    ]
    kwargs.setdefault("retry_policy",
                      RetryPolicy(base_delay=1.0, backoff=2.0,
                                  max_delay=60.0, jitter=0.0))
    clock = kwargs.setdefault("clock", FakeClock())
    return ShardedCorpus(specs, corpus_id="merged:test",
                         **kwargs), loaders, clock


@pytest.fixture()
def clips():
    return [
        _clip("a", 10, seed=1),
        _clip("b", 8, seed=2),
        _clip("c", 12, seed=3, spike_every=4),
    ]


def _bag_range(corpus, clip_id):
    """Global bag-id set of one clip (from the catalog offsets)."""
    lo = 0
    for spec in corpus.specs:
        if spec.clip_id == clip_id:
            return set(range(lo, lo + spec.n_bags))
        lo += spec.n_bags
    raise AssertionError(clip_id)


class TestQuarantine:
    def test_strict_load_failure_raises_typed_error(self, clips):
        corpus, loaders, _ = _flaky_corpus(clips)
        loaders["b"].fail = True
        engine = ShardedRetrievalEngine(corpus)  # strict default
        with pytest.raises(ShardUnavailableError) as err:
            engine.rank()
        assert err.value.clip_id == "b"
        assert "disk on fire" in str(err.value)

    def test_quarantine_fast_fails_without_reprobing(self, clips):
        corpus, loaders, clock = _flaky_corpus(clips)
        loaders["b"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.shard("b")
        calls = loaders["b"].calls
        # Within the backoff window the loader must not be touched.
        with pytest.raises(ShardUnavailableError):
            corpus.shard("b")
        assert loaders["b"].calls == calls
        assert corpus.quarantined_clip_ids == ["b"]
        # Once due, the loader is reprobed; still failing extends the
        # quarantine with a grown backoff.
        clock.advance(1.0)
        with pytest.raises(ShardUnavailableError) as err:
            corpus.shard("b")
        assert loaders["b"].calls == calls + 1
        assert err.value.failures == 2
        assert err.value.retry_in_s == pytest.approx(2.0)  # 1.0 * 2**1

    def test_reprobe_success_rejoins_and_resets(self, clips):
        corpus, loaders, clock = _flaky_corpus(clips)
        loaders["b"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.shard("b")
        mutations = corpus.mutation_count
        loaders["b"].fail = False
        clock.advance(1.0)
        shard = corpus.shard("b")
        assert shard.clip_id == "b"
        assert corpus.quarantined_clip_ids == []
        assert corpus.shard_outage("b") is None
        # Recovery bumps the mutation counter so engines refit.
        assert corpus.mutation_count == mutations + 1
        obs = get_telemetry()
        assert obs.counter("sharded.shard_recoveries").total() == 1
        assert obs.gauge("sharded.quarantined_shards").value() == 0

    def test_refresh_failure_quarantines_and_keeps_old_spec(self, clips):
        corpus, loaders, _ = _flaky_corpus(clips)
        engine = ShardedRetrievalEngine(corpus, failure_policy="degraded")
        engine.rank()  # load everything
        old_bags = len(corpus)
        loaders["b"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.refresh("b", n_bags=9, n_instances=100)
        # The catalog counts were NOT adopted: ids stay stable and the
        # caller retries the refresh after the shard heals.
        assert len(corpus) == old_bags
        assert corpus.quarantined_clip_ids == ["b"]
        assert "b" not in corpus.loaded_clip_ids


class TestDegradedRounds:
    def _fed(self, corpus, labels=None, **kwargs):
        engine = ShardedRetrievalEngine(corpus, **kwargs)
        if labels:
            engine.feed(labels)
        return engine

    def test_degraded_round_serves_remaining_shards(self, clips):
        corpus, loaders, _ = _flaky_corpus(clips)
        loaders["b"].fail = True
        engine = self._fed(corpus, failure_policy="degraded")
        ranking = engine.rank()
        missing = _bag_range(corpus, "b")
        assert not missing & set(ranking)
        assert len(ranking) == len(corpus) - len(missing)
        cov = engine.last_coverage
        assert isinstance(cov, CoverageReport)
        assert cov.degraded
        assert cov.shards_served == ("a", "c")
        assert cov.missing_clip_ids == ("b",)
        assert cov.bags_missing == len(missing)
        assert cov.bags_total == len(corpus)
        assert "DEGRADED" in cov.summary()
        assert get_telemetry().counter(
            "sharded.degraded_rounds").total() >= 1

    def test_zero_faults_matches_strict_engine_exactly(self, clips):
        corpus_a, _, _ = _flaky_corpus(clips)
        corpus_b, _, _ = _flaky_corpus(clips)
        strict = self._fed(corpus_a, failure_policy="strict")
        degraded = self._fed(corpus_b, failure_policy="degraded")
        labels = {0: True, 4: False, 20: True}
        for eng in (strict, degraded):
            eng.feed(labels)
        assert strict.rank() == degraded.rank()
        assert degraded.last_coverage is not None
        assert not degraded.last_coverage.degraded
        assert degraded.last_coverage.shards_served == ("a", "b", "c")

    def test_midsession_failure_serves_exact_restriction(self, clips):
        """A shard dying *after* training must not perturb the served
        shards' scores: the degraded ranking is the full ranking with
        the dead shard's bags deleted."""
        corpus_full, _, _ = _flaky_corpus(clips)
        reference = self._fed(corpus_full, labels={0: True, 12: True})
        full_rank = reference.rank()

        corpus, loaders, _ = _flaky_corpus(clips)
        engine = self._fed(corpus, labels={0: True, 12: True},
                           failure_policy="degraded")
        assert engine.rank() == full_rank
        # Kill clip "c" mid-session via a failed refresh (the streaming
        # path's failure mode: catalog says more bags, loader dies).
        loaders["c"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.refresh("c", n_bags=13, n_instances=999)
        missing = _bag_range(corpus, "c")
        degraded_rank = engine.rank()
        assert degraded_rank == [b for b in full_rank if b not in missing]
        assert engine.last_coverage.degraded
        assert engine.last_coverage.missing_clip_ids == ("c",)

    def test_recovery_rejoins_within_reprobe_schedule(self, clips):
        corpus, loaders, clock = _flaky_corpus(clips)
        loaders["b"].fail = True
        engine = self._fed(corpus, failure_policy="degraded")
        engine.feed({0: True, 20: True})
        engine.rank()
        assert engine.last_coverage.degraded
        # Fault clears; before the reprobe deadline the shard stays out.
        loaders["b"].fail = False
        assert engine.rank() and engine.last_coverage.degraded
        # At the deadline the next round reprobes, recovers, retrains.
        clock.advance(1.0)
        ranking = engine.rank()
        assert not engine.last_coverage.degraded
        assert set(ranking) == set(range(len(corpus)))
        # Healed state matches a never-failed engine fed the same labels.
        corpus2, _, _ = _flaky_corpus(clips)
        fresh = self._fed(corpus2, labels={0: True, 20: True})
        assert ranking == fresh.rank()

    def test_walk_yields_the_round_it_started_on(self, clips):
        """Regression: a ranking walk that outlived a shard's recovery
        spliced two rounds.  It yielded 28 of the 30 bags, never the
        recovered shard's two candidates, and reported full coverage."""
        corpus, loaders, clock = _flaky_corpus(clips)
        loaders["b"].fail = True
        engine = self._fed(corpus, candidates_per_shard=2,
                           failure_policy="degraded")
        walk = engine.rank_iter()
        walked = list(islice(walk, 4))
        loaders["b"].fail = False
        clock.advance(2.0)  # past b's reprobe deadline
        walked += list(walk)
        served = _bag_range(corpus, "a") | _bag_range(corpus, "c")
        assert len(walked) == len(served) == 22
        assert set(walked) == served
        assert engine.last_coverage.degraded
        assert sorted(engine.rank()) == list(range(30))
        assert not engine.last_coverage.degraded

    def test_relevant_bag_on_dead_shard_skipped_from_training(self, clips):
        corpus, loaders, _ = _flaky_corpus(clips)
        engine = self._fed(corpus, failure_policy="degraded")
        b_bags = sorted(_bag_range(corpus, "b"))
        engine.feed({0: True, b_bags[0]: True})
        assert engine.is_trained
        loaders["b"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.refresh("b", n_bags=9, n_instances=999)
        engine.feed({4: False})  # retrain with shard "b" dead
        assert engine.is_trained  # bag 0 still trains the model
        engine.rank()
        assert engine.last_coverage.training_bags_skipped == 1

    def test_every_relevant_shard_dead_forgets_nu_and_training_size(
            self, clips):
        """Regression: nu and H outlived the fit they described."""
        corpus, loaders, _ = _flaky_corpus(clips)
        engine = self._fed(corpus, failure_policy="degraded")
        b_bags = sorted(_bag_range(corpus, "b"))
        engine.feed({b_bags[0]: True, b_bags[1]: True})
        assert (engine.last_nu_, engine.training_size_) == (0.05, 2)
        loaders["b"].fail = True
        with pytest.raises(ShardUnavailableError):
            corpus.refresh("b", n_bags=9, n_instances=999)
        engine.feed({0: False})  # retrain with every relevant bag dead
        assert not engine.is_trained
        assert (engine.last_nu_, engine.training_size_) == (None, 0)

    def test_degraded_all_shards_dead_raises(self, clips):
        corpus, loaders, _ = _flaky_corpus(clips)
        for loader in loaders.values():
            loader.fail = True
        engine = self._fed(corpus, failure_policy="degraded")
        # No shard to serve: rank yields nothing rather than lying.
        assert engine.rank() == []
        cov = engine.last_coverage
        assert cov.degraded and not cov.shards_served
        assert cov.bags_missing == len(corpus)

    def test_failure_policy_validated(self, clips):
        corpus, _, _ = _flaky_corpus(clips)
        with pytest.raises(ConfigurationError):
            ShardedRetrievalEngine(corpus, failure_policy="lenient")


@pytest.mark.parametrize("rate, recovery_round",
                         [(0.2, 1), (0.5, 4), (0.8, 4)])
def test_recovery_time_vs_fault_rate(rate, recovery_round):
    """Seeded shard-load faults (at most six) on a zero-jitter reprobe
    schedule under a fake clock: complete coverage returns at an exact
    round and stays complete."""
    injector = FaultInjector(FaultPlan([
        FaultRule(op="shard.load", kind="io-error", rate=rate, limit=6),
    ], seed=int(rate * 100)))
    datasets = [_clip(f"clip-{i}", 120, seed=i + 1, spike_every=7 + i)
                for i in range(6)]
    clock = FakeClock()
    corpus = ShardedCorpus(
        injector.wrap_shard_specs(_specs(datasets)), corpus_id="merged:test",
        retry_policy=RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=4.0,
                                 jitter=0.0),
        clock=clock)
    engine = ShardedRetrievalEngine(corpus, failure_policy="degraded")
    degraded = []
    for _ in range(recovery_round + 4):
        engine.rank()
        degraded.append(engine.last_coverage.degraded)
        clock.advance(1.0)
    assert degraded == [True] * (recovery_round - 1) + [False] * 5
