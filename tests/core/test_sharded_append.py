"""Live shard appends: in-place growth must never serve stale caches.

Satellite regression for streaming ingestion: ``ShardedCorpus.refresh``
lets an open engine absorb a streamed append *in place*.  Everything
memoized against the old bag population — candidate-position prefixes,
heuristic order, the standardized matrix and its GramCache columns, the
engine's scaler and round streams — must be invalidated, so a warm
session ranks exactly like a fresh engine built over the grown corpus.
"""

import numpy as np
import pytest

from repro.core.bags import Bag, Instance, MILDataset
from repro.core.sharded import ShardedCorpus, ShardedRetrievalEngine, ShardSpec
from repro.errors import ConfigurationError


def make_bags(clip_id, n_bags, *, start=0, seed=0, n_inst=2):
    rng = np.random.default_rng(seed + 17 * start)
    bags = []
    for b in range(start, start + n_bags):
        instances = tuple(
            Instance(instance_id=0, bag_id=b, track_id=b * 10 + j,
                     matrix=rng.normal(size=(3, 2)) + (3.0 if b % 3 else 0))
            for j in range(n_inst)
        )
        bags.append(Bag(bag_id=b, clip_id=clip_id, frame_lo=b * 10,
                        frame_hi=b * 10 + 9, instances=instances))
    return bags


class Backing:
    """Mutable per-clip bag lists standing in for the database."""

    def __init__(self, **clips):
        self.clips = dict(clips)
        self.loads = 0

    def loader(self, clip_id):
        def load():
            self.loads += 1
            bags = self.clips[clip_id]
            return MILDataset(
                clip_id=clip_id, event_name="accident",
                feature_names=("f0", "f1"), window_size=3,
                sampling_rate=5, bags=list(bags))
        return load

    def spec(self, clip_id):
        bags = self.clips[clip_id]
        return ShardSpec(
            clip_id=clip_id, n_bags=len(bags),
            n_instances=sum(b.n_instances for b in bags),
            loader=self.loader(clip_id))

    def corpus(self, *clip_ids):
        return ShardedCorpus([self.spec(c) for c in clip_ids],
                             corpus_id="live")

    def grow(self, clip_id, n_new, **kwargs):
        bags = self.clips[clip_id]
        bags.extend(make_bags(clip_id, n_new, start=len(bags), **kwargs))
        return len(bags), sum(b.n_instances for b in bags)


@pytest.fixture()
def backing():
    return Backing(a=make_bags("a", 6, seed=1),
                   b=make_bags("b", 5, seed=2))


class TestRefresh:
    def test_warm_engine_matches_fresh_after_append(self, backing):
        """The satellite-1 regression: query across an append."""
        corpus = backing.corpus("a", "b")
        engine = ShardedRetrievalEngine(corpus)
        labels = {0: True, 7: True, 2: False}
        engine.feed(labels)
        engine.rank()  # warm: scaler fitted, GramCache columns built
        assert all(s.gram_cache is not None for s in corpus.shards())

        n_bags, n_inst = backing.grow("a", 3)
        assert corpus.refresh("a", n_bags=n_bags, n_instances=n_inst) == 3
        warm = engine.rank()

        fresh_engine = ShardedRetrievalEngine(backing.corpus("a", "b"))
        fresh_engine.feed(labels)
        assert warm == fresh_engine.rank()
        assert sorted(warm) == list(range(len(corpus)))

    def test_untrained_engine_ranks_appended_bags(self, backing):
        corpus = backing.corpus("a", "b")
        engine = ShardedRetrievalEngine(corpus)
        engine.rank()
        n_bags, n_inst = backing.grow("a", 2)
        corpus.refresh("a", n_bags=n_bags, n_instances=n_inst)
        assert sorted(engine.rank()) == list(range(len(corpus)))

    def test_matching_counts_are_a_noop(self, backing):
        corpus = backing.corpus("a", "b")
        corpus.shard("a")
        loads = backing.loads
        mutations = corpus.mutation_count
        spec = backing.spec("a")
        assert corpus.refresh("a", n_bags=spec.n_bags,
                              n_instances=spec.n_instances) == 0
        assert backing.loads == loads
        assert corpus.mutation_count == mutations

    def test_shrink_rejected(self, backing):
        corpus = backing.corpus("a", "b")
        with pytest.raises(ConfigurationError, match="shrink"):
            corpus.refresh("a", n_bags=1, n_instances=1)

    def test_unknown_clip_rejected(self, backing):
        corpus = backing.corpus("a")
        with pytest.raises(ConfigurationError, match="no shard"):
            corpus.refresh("zzz", n_bags=1, n_instances=1)

    def test_later_loaded_shards_reoffset(self, backing):
        corpus = backing.corpus("a", "b")
        before_b = corpus.shard("b")
        assert before_b.bag_offset == 6
        n_bags, n_inst = backing.grow("a", 2)
        corpus.refresh("a", n_bags=n_bags, n_instances=n_inst)
        after_b = corpus.shard("b")
        assert after_b is not before_b
        assert after_b.bag_offset == 8
        # Global ids stay dense and every bag resolvable.
        assert {corpus.bag_by_id(i).bag_id
                for i in range(len(corpus))} == set(range(len(corpus)))

    def test_unloaded_shard_grows_lazily(self, backing):
        corpus = backing.corpus("a", "b")
        n_bags, n_inst = backing.grow("a", 2)
        corpus.refresh("a", n_bags=n_bags, n_instances=n_inst)
        assert corpus.loaded_clip_ids == []
        assert corpus.shard("a").n_bags == n_bags


class TestAppendLocalInvalidation:
    def test_candidate_memo_and_heuristics_invalidated(self, backing):
        corpus = backing.corpus("a")
        shard = corpus.shard("a")
        before = shard.candidate_positions(None)
        assert len(before) == 6
        _ = shard.heuristic_rank
        n_bags, n_inst = backing.grow("a", 2)
        corpus.refresh("a", n_bags=n_bags, n_instances=n_inst)
        assert corpus.shard("a") is shard  # grown in place
        after = shard.candidate_positions(None)
        assert len(after) == 8
        assert len(shard.heuristic_bags) == 8
        assert len(shard.heuristic_rank) == 8
        assert shard.matrix is None and shard.gram_cache is None
        assert shard.matrix_raw.shape[0] == n_inst

    def test_replayed_delta_is_idempotent(self, backing):
        corpus = backing.corpus("a")
        shard = corpus.shard("a")
        delta = make_bags("a", 2, start=6)
        assert shard.append_local(delta) == 2
        assert shard.append_local(delta) == 0
        assert shard.n_bags == 8

    def test_non_contiguous_tail_rejected(self, backing):
        shard = backing.corpus("a").shard("a")
        gap = make_bags("a", 1, start=9)
        with pytest.raises(ConfigurationError, match="contiguous"):
            shard.append_local(gap)
