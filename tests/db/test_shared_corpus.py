"""One live corpus shared by every session over the same clips.

``sharded_corpus`` gets the corpus already open on a ``VideoDatabase``
for the same key, or builds it.  Sharing is sound under live appends
because everything derived from the corpus' rows — the global scaler,
each shard's standardized matrix and Gram cache, and the catalog cursor
that triggers a refresh — lives on the corpus, keyed to its epoch.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.sharded import ShardedRetrievalEngine
from repro.db import (ClipRecord, LabelRecord, MultiClipQuerySession,
                      SemanticQuerySession, StreamingIngest, VideoDatabase,
                      sharded_corpus)
from repro.db.query import merged_corpus_id
from repro.errors import SessionConflictError
from repro.eval import build_artifacts
from repro.obs import Telemetry, set_telemetry
from repro.pipeline import MemoryArtifactStore
from repro.reliability import RetryPolicy
from repro.svm.scaling import StandardScaler

from tests.core.test_sharded import _clip
from tests.core.test_sharded_append import Backing, make_bags
from tests.core.test_sharded_degraded import FakeClock

EVENT = "accident"


@pytest.fixture()
def telemetry():
    registry = Telemetry()
    previous = set_telemetry(registry)
    yield registry
    set_telemetry(previous)


def _seed(db, events=(EVENT,)):
    for clip_id, n_bags, seed in (("a", 8, 1), ("b", 6, 2)):
        db.add_clip(ClipRecord(clip_id=clip_id, fps=25.0,
                               n_frames=n_bags * 20, width=320, height=240))
        for event in events:
            db.add_dataset(dataclasses.replace(
                _clip(clip_id, n_bags, seed=seed), event_name=event))
    return ["a", "b"]


class TestRegistry:
    def test_same_key_returns_the_open_corpus(self, telemetry):
        db = VideoDatabase()
        clips = _seed(db)
        first = sharded_corpus(db, clips, EVENT)
        assert sharded_corpus(db, clips, EVENT) is first
        policy = RetryPolicy(base_delay=1.0, jitter=0.0)
        keyed = sharded_corpus(db, clips, EVENT, retry_policy=policy)
        # The policy is part of the key by value, like its equality.
        assert sharded_corpus(db, clips, EVENT,
                              retry_policy=dataclasses.replace(policy)) \
            is keyed
        assert telemetry.counter("sharded.corpus_pool_hits").total() == 2

    def test_every_build_input_is_part_of_the_key(self):
        db = VideoDatabase()
        clips = _seed(db, events=(EVENT, "near_miss"))
        base = sharded_corpus(db, clips, EVENT)
        others = [
            sharded_corpus(db, clips[::-1], EVENT),
            sharded_corpus(db, clips, "near_miss"),
            sharded_corpus(db, clips, EVENT,
                           retry_policy=RetryPolicy(base_delay=1.0)),
            sharded_corpus(db, clips, EVENT, clock=FakeClock()),
        ]
        assert all(other is not base for other in others)
        assert len({id(c) for c in others}) == len(others)
        # One registry per catalog object.
        second = VideoDatabase()
        _seed(second)
        assert sharded_corpus(second, clips, EVENT) is not base

    def test_sessions_share_it_and_the_last_one_frees_it(self, telemetry):
        db = VideoDatabase()
        clips = _seed(db)
        a = MultiClipQuerySession(db, clips, EVENT, user_id="a")
        b = MultiClipQuerySession(db, clips, EVENT, user_id="b")
        assert a.dataset is b.dataset
        assert a.engine is not b.engine
        corpus = weakref.ref(a.dataset)
        del a
        gc.collect()
        assert corpus() is b.dataset
        del b
        gc.collect()
        assert corpus() is None
        hits = telemetry.counter("sharded.corpus_pool_hits").total()
        fresh = MultiClipQuerySession(db, clips, EVENT, user_id="c")
        assert fresh.dataset is not None
        assert telemetry.counter("sharded.corpus_pool_hits").total() == hits

    def test_racing_threads_get_one_corpus(self, tmp_path, telemetry,
                                           monkeypatch):
        db = VideoDatabase(tmp_path / "v.db")
        clips = _seed(db)
        n = 4
        # Hold every thread inside its build until all have started
        # one, so each builds and all but one must adopt the winner.
        barrier = threading.Barrier(n)
        real_meta = db.dataset_meta

        def meta(clip_id, event_name):
            if clip_id == clips[0]:
                barrier.wait(timeout=30)
            return real_meta(clip_id, event_name)

        monkeypatch.setattr(db, "dataset_meta", meta)
        got = [None] * n

        def open_corpus(i):
            got[i] = sharded_corpus(db, clips, EVENT)

        threads = [threading.Thread(target=open_corpus, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        db.close()
        assert got[0] is not None
        assert all(c is got[0] for c in got)
        assert telemetry.counter("sharded.corpus_pool_hits").total() == n - 1


class TestStaleJoin:
    """A session can join a shared corpus after an append no open
    session has absorbed yet; the corpus' own cursor makes it catch up."""

    def test_joining_session_sees_the_catalog(self, small_tunnel,
                                              small_intersection):
        db = VideoDatabase()
        oracle = build_artifacts(small_tunnel, mode="oracle")
        db.ingest_simulation(small_tunnel, oracle.tracks, oracle.dataset)
        clips = [small_tunnel.name, small_intersection.name]
        opened: dict = {}

        def catalog_bags():
            return sum(db.dataset_meta(c, EVENT)["n_bags"] for c in clips)

        def after_append(emission):
            if not emission.bags:
                return
            if "a" not in opened:
                a = opened["a"] = MultiClipQuerySession(
                    db, clips, EVENT, user_id="a", top_k=10)
                a.feed({b: True for b in a.results()[:3]})
                return
            # Bags just landed that no open session has absorbed.
            stale = len(opened["a"].dataset)
            assert catalog_bags() > stale
            if "b" not in opened:
                b = opened["b"] = MultiClipQuerySession(
                    db, clips, EVENT, user_id="b", top_k=10)
                assert len(b.dataset) == catalog_bags()
                assert len(b.results()) == 10
            elif "w" not in opened:
                # Another worker already labelled an appended bag for
                # user "w"; resuming "w" replays that label.
                db.add_labels([LabelRecord(
                    clip_id="merged:" + "+".join(clips), event_name=EVENT,
                    bag_id=stale, user_id="w", round_index=0,
                    relevant=True)])
                w = opened["w"] = MultiClipQuerySession(
                    db, clips, EVENT, user_id="w", top_k=10)
                assert w.round_index == 1
                assert w.engine.labels == {stale: True}
                assert len(w.results()) == 10

        StreamingIngest(db, small_intersection, segment_frames=100,
                        store=MemoryArtifactStore()).run(
            progress=after_append)
        assert {"a", "b", "w"} <= set(opened)
        # The first session absorbs the rest on its next round.
        opened["a"].results()
        assert len(opened["a"].dataset) == catalog_bags()


class TestSingleClipSession:
    """A single-clip session is a one-clip multi-clip session: it shares
    the clip's live corpus and keeps its history under the clip id."""

    def test_shares_the_corpus_and_keeps_its_own_history(self):
        db = VideoDatabase()
        _seed(db)
        single = SemanticQuerySession(db, "a", EVENT, user_id="u")
        multi = MultiClipQuerySession(db, ["a"], EVENT, user_id="u")
        assert single.dataset is multi.dataset
        single.feed({0: True})
        multi.feed({1: True})
        assert single.engine.labels == {0: True}
        assert multi.engine.labels == {1: True}
        assert [r.bag_id for r in db.labels("a", EVENT, "u")] == [0]
        assert [r.bag_id for r in db.labels(
            merged_corpus_id(["a"]), EVENT, "u")] == [1]

    def test_conflict_after_appends_resyncs_onto_the_grown_corpus(
            self, small_intersection):
        # Regression: a single-clip session used to rank a private copy
        # of the clip as it was when the session opened.  Once another
        # session object of the same user had labelled an appended bag,
        # the conflict resync replayed that label into an engine over
        # the stale copy, and it and every later round raised
        # "labels reference unknown bag ids" instead of the conflict.
        db = VideoDatabase()
        clip = small_intersection.name
        opened, ranked = [], []

        def after_append(emission):
            if emission.bags and not opened:
                session = SemanticQuerySession(db, clip, EVENT,
                                               user_id="u", top_k=100)
                opened.append(session)
                ranked.append(len(session.results()))

        StreamingIngest(db, small_intersection, segment_frames=100,
                        store=MemoryArtifactStore()).run(
            progress=after_append)
        first, appended = opened[0], ranked[0]
        n_bags = db.dataset_meta(clip, EVENT)["n_bags"]
        assert appended < n_bags
        SemanticQuerySession(db, clip, EVENT, user_id="u").feed(
            {appended: True})
        with pytest.raises(SessionConflictError):
            first.feed({0: False})
        assert first.round_index == 1
        assert len(first.results()) == n_bags
        first.feed({0: False})
        assert [(r.round_index, r.bag_id) for r in db.labels(
            clip, EVENT, "u")] == [(0, appended), (1, 0)]
        assert db.labels(merged_corpus_id([clip]), EVENT, "u") == []


def _backing():
    return Backing(a=make_bags("a", 6, seed=1), b=make_bags("b", 5, seed=2))


@pytest.fixture()
def scaler_calls(monkeypatch):
    """Counts of StandardScaler fits and transforms (standardizations)."""
    calls = {"fit": 0, "transform": 0}
    for name in calls:
        real = getattr(StandardScaler, name)

        def counted(self, x, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, x)
        monkeypatch.setattr(StandardScaler, name, counted)
    return calls


class TestEpochState:
    def test_engines_fit_once_and_standardize_each_shard_once_per_epoch(
            self, telemetry, scaler_calls):
        calls = scaler_calls
        backing = _backing()
        corpus = backing.corpus("a", "b")
        engines = [ShardedRetrievalEngine(corpus) for _ in range(8)]
        for i, engine in enumerate(engines):
            engine.feed({i: True, 6 + i % 5: True})
            engine.rank()
        assert calls == {"fit": 1, "transform": 2}

        n_bags, n_inst = backing.grow("a", 3)
        corpus.refresh("a", n_bags=n_bags, n_instances=n_inst)
        for engine in engines:
            engine.rank()
        assert calls == {"fit": 2, "transform": 4}
        # Still one sync per engine per mutation.
        assert telemetry.counter("sharded.corpus_syncs").total() == 8

    def test_threads_on_a_cold_corpus_build_it_once(self, scaler_calls):
        """More threads than cores reach a cold corpus together, with a
        short switch interval: one fit, each shard standardized once, and
        every engine scores like one over a private corpus.  Repeated on
        fresh corpora, because a lost race is rare in any one trial."""
        n, trials = 6, 20
        labels = [{i: True, 6 + i % 5: True, (i + 3) % 11: False}
                  for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(trials):
                corpus = _backing().corpus("a", "b")
                engines = [ShardedRetrievalEngine(corpus) for _ in range(n)]
                barrier = threading.Barrier(n)
                errors = []

                def run(i, engines=engines, barrier=barrier, errors=errors):
                    try:
                        barrier.wait(timeout=30)
                        engines[i].feed(labels[i])
                        engines[i].rank()
                    except Exception as exc:  # noqa: BLE001 - asserted
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert scaler_calls == {"fit": trial + 1,
                                        "transform": 2 * (trial + 1)}
        finally:
            sys.setswitchinterval(interval)
        for engine, fed in zip(engines, labels):
            private = ShardedRetrievalEngine(_backing().corpus("a", "b"))
            private.feed(fed)
            np.testing.assert_allclose(engine.bag_scores(),
                                       private.bag_scores(), rtol=0,
                                       atol=1e-9)

    def test_sharing_keeps_the_scores(self):
        """Engines over one shared live corpus score every bag like
        engines over private corpora, at every epoch.  The label schedule
        is fixed, so a near-tie can never change a later label."""
        n_engines, rounds = 4, 3
        shared_backing = _backing()
        private_backings = [_backing() for _ in range(n_engines)]
        shared_corpus = shared_backing.corpus("a", "b")
        private_corpora = [b.corpus("a", "b") for b in private_backings]
        shared = [ShardedRetrievalEngine(shared_corpus)
                  for _ in range(n_engines)]
        private = [ShardedRetrievalEngine(c) for c in private_corpora]
        for epoch in range(rounds):
            for t in range(n_engines):
                n = len(shared_corpus)
                labels = {(3 * t + 5 * epoch) % n: True,
                          (7 * t + epoch + 1) % n: True,
                          (2 * t + 11 * epoch + 4) % n: False}
                shared[t].feed(labels)
                private[t].feed(labels)
            for s, p in zip(shared, private):
                np.testing.assert_allclose(s.bag_scores(), p.bag_scores(),
                                           rtol=0, atol=1e-9)
            # Stream a segment into both clips' last shard.
            for backing, corpus in zip(
                    [shared_backing, *private_backings],
                    [shared_corpus, *private_corpora]):
                n_bags, n_inst = backing.grow("b", 2, seed=epoch)
                corpus.refresh("b", n_bags=n_bags, n_instances=n_inst)
        for s, p in zip(shared, private):
            np.testing.assert_allclose(s.bag_scores(), p.bag_scores(),
                                       rtol=0, atol=1e-9)
