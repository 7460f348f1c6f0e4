"""Tests for the sharded corpus and two-stage pruned ranking.

The load-bearing property is monolith equivalence: with pruning
disabled, the sharded engine must reproduce the merged-dataset
``MILRetrievalEngine`` ranking round for round, including the bag-id
tie-break.  The rest pins the shard mechanics — lazy loading, spec
validation, feed atomicity, pruning semantics, Gram-cache reuse.
"""

import heapq

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MILRetrievalEngine, merge_datasets
from repro.core.bags import Bag, Instance, MILDataset
from repro.core.sharded import (
    CorpusShard,
    IVFNominator,
    ShardSpec,
    ShardedCorpus,
    ShardedRetrievalEngine,
)
from repro.errors import ConfigurationError, StorageError


def _clip(clip_id, n_bags, seed, *, spike_every=3, empty_every=None,
          window=4, features=3, instances_per_bag=2):
    """Synthetic clip: every ``spike_every``-th bag carries an incident-
    like feature spike (so relevance is known by construction)."""
    rng = np.random.default_rng(seed)
    bags, iid = [], 0
    for b in range(n_bags):
        empty = empty_every is not None and b % empty_every == 1
        instances = []
        if not empty:
            for _ in range(instances_per_bag):
                matrix = rng.normal(scale=0.3, size=(window, features))
                if b % spike_every == 0:
                    matrix[window // 2] += 4.0
                instances.append(Instance(
                    instance_id=iid, bag_id=b, track_id=iid,
                    matrix=matrix))
                iid += 1
        bags.append(Bag(bag_id=b, clip_id=clip_id, frame_lo=b * 20,
                        frame_hi=b * 20 + 19, instances=tuple(instances)))
    return MILDataset(
        clip_id=clip_id, event_name="accident",
        feature_names=tuple(f"f{i}" for i in range(features)),
        window_size=window, sampling_rate=5, bags=bags)


def _specs(datasets):
    return [
        ShardSpec(clip_id=d.clip_id, n_bags=len(d.bags),
                  n_instances=d.n_instances, loader=(lambda d=d: d))
        for d in datasets
    ]


def _corpus(datasets, **kwargs):
    return ShardedCorpus(_specs(datasets), corpus_id="merged:test",
                         **kwargs)


def _spiked_global_ids(merged):
    """Global ids of bags with a spiked instance (relevance oracle)."""
    return {
        bag.bag_id for bag in merged.bags
        if any(np.abs(inst.matrix).max() > 2.0 for inst in bag.instances)
    }


@pytest.fixture()
def three_clips():
    return [
        _clip("a", 12, seed=1),
        _clip("b", 9, seed=2, empty_every=4),
        _clip("c", 15, seed=3, spike_every=5),
    ]


class TestShardedCorpus:
    def test_global_ids_match_merge(self, three_clips):
        corpus = _corpus(three_clips)
        merged = merge_datasets(three_clips, merged_id="merged:test")
        assert len(corpus) == len(merged)
        assert corpus.n_instances == merged.n_instances
        for bag_id in range(len(merged)):
            ours, theirs = corpus.bag_by_id(bag_id), merged.bag_by_id(bag_id)
            assert ours.clip_id == theirs.clip_id
            assert ours.frame_range == theirs.frame_range
            assert ([i.instance_id for i in ours.instances]
                    == [i.instance_id for i in theirs.instances])

    def test_shards_load_lazily(self, three_clips):
        corpus = _corpus(three_clips)
        assert corpus.loaded_clip_ids == []
        corpus.bag_by_id(0)  # first shard only
        assert corpus.loaded_clip_ids == ["a"]
        corpus.bag_by_id(len(corpus) - 1)
        assert set(corpus.loaded_clip_ids) == {"a", "c"}

    def test_unknown_bag_and_clip(self, three_clips):
        corpus = _corpus(three_clips)
        with pytest.raises(ConfigurationError, match="no bag with id"):
            corpus.bag_by_id(len(corpus))
        with pytest.raises(ConfigurationError, match="no shard for clip"):
            corpus.shard("nope")

    def test_spec_count_mismatch_fails_loudly(self, three_clips):
        spec = ShardSpec(clip_id="a", n_bags=99, n_instances=5,
                         loader=lambda: three_clips[0])
        with pytest.raises(ConfigurationError, match="spec declares"):
            CorpusShard(spec, 0, 0)

    def test_duplicate_and_empty_specs_rejected(self, three_clips):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ShardedCorpus(_specs([three_clips[0], three_clips[0]]))
        with pytest.raises(ConfigurationError, match=">= 1"):
            ShardedCorpus([])


class TestMonolithEquivalence:
    def _run_protocol(self, datasets, *, rounds=4, top_k=10,
                      candidates_per_shard=None, **engine_kwargs):
        merged = merge_datasets(datasets, merged_id="merged:test")
        mono = MILRetrievalEngine(merged, **engine_kwargs)
        sharded = ShardedRetrievalEngine(
            _corpus(datasets), candidates_per_shard=candidates_per_shard,
            **engine_kwargs)
        relevant = _spiked_global_ids(merged)
        rankings = []
        for _ in range(rounds):
            mono_rank, sharded_rank = mono.rank(), sharded.rank()
            rankings.append((mono_rank, sharded_rank))
            labels = {b: b in relevant for b in mono_rank[:top_k]}
            mono.feed(labels)
            sharded.feed(labels)
        rankings.append((mono.rank(), sharded.rank()))
        return rankings

    def test_unpruned_ranking_matches_every_round(self, three_clips):
        for mono_rank, sharded_rank in self._run_protocol(three_clips):
            assert sharded_rank == mono_rank

    def test_m_at_corpus_size_matches(self, three_clips):
        total = sum(len(d.bags) for d in three_clips)
        for mono_rank, sharded_rank in self._run_protocol(
                three_clips, candidates_per_shard=total):
            assert sharded_rank == mono_rank

    def test_equivalence_with_svdd_and_topm_policy(self, three_clips):
        for mono_rank, sharded_rank in self._run_protocol(
                three_clips, rounds=2, learner="svdd",
                training_policy="top2"):
            assert sharded_rank == mono_rank

    def test_tie_break_by_bag_id(self):
        """Identical matrices everywhere -> every score ties -> ranking
        must fall back to ascending bag ids, exactly like the monolith."""
        constant = np.ones((3, 2))
        datasets = []
        iid = 0
        for clip_id in ("t1", "t2"):
            bags = []
            for b in range(5):
                inst = Instance(instance_id=iid, bag_id=b, track_id=iid,
                                matrix=constant.copy())
                iid += 1
                bags.append(Bag(bag_id=b, clip_id=clip_id, frame_lo=b * 10,
                                frame_hi=b * 10 + 9, instances=(inst,)))
            datasets.append(MILDataset(
                clip_id=clip_id, event_name="accident",
                feature_names=("f0", "f1"), window_size=3,
                sampling_rate=5, bags=bags))
        for mono_rank, sharded_rank in self._run_protocol(
                datasets, rounds=2, top_k=4):
            assert sharded_rank == mono_rank
            assert sharded_rank == sorted(sharded_rank)


class TestPrunedRanking:
    def test_rank_is_a_permutation(self, three_clips):
        engine = ShardedRetrievalEngine(_corpus(three_clips),
                                        candidates_per_shard=3)
        merged = merge_datasets(three_clips, merged_id="merged:test")
        ranking = engine.rank()
        assert sorted(ranking) == list(range(len(merged)))
        engine.feed({b: b in _spiked_global_ids(merged)
                     for b in ranking[:8]})
        ranking = engine.rank()
        assert sorted(ranking) == list(range(len(merged)))

    def test_pruned_top_k_matches_unpruned(self, three_clips):
        """The trained model is independent of M, and the spiked bags sit
        at the top of each shard's heuristic order, so a moderate M must
        reproduce the unpruned top-k."""
        merged = merge_datasets(three_clips, merged_id="merged:test")
        relevant = _spiked_global_ids(merged)
        full = ShardedRetrievalEngine(_corpus(three_clips))
        pruned = ShardedRetrievalEngine(_corpus(three_clips),
                                        candidates_per_shard=6)
        labels = {b: b in relevant for b in full.top_k(10)}
        full.feed(labels)
        pruned.feed(labels)
        assert pruned.top_k(5) == full.top_k(5)

    def test_pruned_bags_follow_all_candidates(self, three_clips):
        m = 2
        corpus = _corpus(three_clips)
        engine = ShardedRetrievalEngine(corpus, candidates_per_shard=m)
        ranking = engine.rank()
        n_candidates = sum(
            min(m, spec.n_bags) for spec in corpus.specs)
        candidate_ids = {
            int(shard.bag_offset + p)
            for shard in corpus.shards()
            for p in shard.candidate_positions(m)
        }
        assert set(ranking[:n_candidates]) == candidate_ids

    def test_empty_bags_rank_last(self):
        datasets = [_clip("e1", 8, seed=5, empty_every=2),
                    _clip("e2", 8, seed=6)]
        engine = ShardedRetrievalEngine(_corpus(datasets))
        merged = merge_datasets(datasets, merged_id="merged:test")
        empty = {b.bag_id for b in merged.bags if not b.instances}
        ranking = engine.rank()
        assert set(ranking[-len(empty):]) == empty


def _merged_order(parts):
    """The order a round had when each shard fed a k-way merge.

    Each served shard gave one stream of its candidates, lexsorted into
    ``(-score, bag id)`` tuples, and one of its pruned bags in heuristic
    order; ``heapq.merge`` walked every candidate stream, then every
    pruned one.  ``parts`` holds ``(shard, candidate positions, their
    scores)`` per served shard, in spec order.
    """
    candidates, leftovers = [], []
    for shard, positions, scores in parts:
        bag_ids = shard.bag_offset + positions
        order = np.lexsort((bag_ids, -scores))
        candidates.append([(-float(scores[i]), int(bag_ids[i]))
                           for i in order])
        if len(positions) == shard.n_bags:
            continue
        pruned = np.ones(shard.n_bags, dtype=bool)
        pruned[positions] = False
        order = shard.heuristic_order
        leftovers.append([
            (-float(shard.heuristic_bags[p]), int(shard.bag_offset + p))
            for p in order[pruned[order]]])
    return ([bag_id for _, bag_id in heapq.merge(*candidates)]
            + [bag_id for _, bag_id in heapq.merge(*leftovers)])


#: Scores with ties, an empty bag's -inf, and 0.0 beside -0.0.
_SCORES = st.one_of(st.sampled_from([1.0, 0.5, 0.0, -0.0, -np.inf]),
                    st.floats(-3.0, 3.0))


def _offline_loader():
    raise StorageError("offline")


class TestOneSortRound:
    """A round's one lexsort orders every served bag exactly as the
    per-shard streams and merge passes did (:func:`_merged_order`)."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_order_equals_the_per_shard_merge(self, data):
        draw = data.draw
        datasets, offline = [], []
        for s in range(draw(st.integers(1, 4), label="shards")):
            datasets.append(_clip(
                f"s{s}", draw(st.integers(0, 5)), seed=s,
                empty_every=draw(st.sampled_from([None, 2, 3]))))
            offline.append(draw(st.booleans()))
        assume(any(d.n_instances for d in datasets))
        specs = [
            ShardSpec(clip_id=d.clip_id, n_bags=len(d.bags),
                      n_instances=d.n_instances,
                      loader=_offline_loader if off else (lambda d=d: d))
            for d, off in zip(datasets, offline)]
        corpus = ShardedCorpus(specs, corpus_id="merged:test")
        engine = ShardedRetrievalEngine(corpus, failure_policy="degraded")
        synthetic = draw(st.booleans(), label="synthetic scores")
        served, drawn = [], {}
        for d, off in zip(datasets, offline):
            if off:
                continue
            shard = corpus.shard(d.clip_id)
            served.append(shard)
            n = shard.n_bags
            heuristic = draw(st.lists(_SCORES, min_size=n, max_size=n))
            shard.set_initial_scores(np.array(heuristic, dtype=float), dict(
                zip(range(shard.instance_offset,
                          shard.instance_offset + shard.n_instances),
                    shard.heuristic_instances)))
            keep = draw(st.permutations(range(n)))[
                :draw(st.integers(0, n))]
            shard.candidate_positions = (
                lambda m, p=np.array(keep, dtype=np.intp): p)
            drawn[d.clip_id] = np.array(
                draw(st.lists(_SCORES, min_size=n, max_size=n)), dtype=float)
        parts = []
        score_shard = engine._score_shard

        def spy(shard, positions):
            scores = (drawn[shard.clip_id][positions] if synthetic
                      else score_shard(shard, positions))
            parts.append((shard, positions, scores))
            return scores

        engine._score_shard = spy
        relevant = [shard.bag_offset + b for shard in served
                    for b, bag in enumerate(shard.dataset.bags)
                    if bag.instances]
        for trained in (False, True):
            if trained:
                engine.feed({relevant[0]: True} if relevant else {0: False})
                assert engine.is_trained == bool(relevant)
            parts.clear()
            ranking = engine.rank()
            assert ranking == _merged_order(parts)
            assert all(type(b) is int for b in ranking)
            assert engine.top_k(3) == ranking[:3]
            assert list(engine.rank_iter()) == ranking


class TestNominators:
    def _fed_pair(self, datasets, *, m=6, n_cells=8, nprobe=8,
                  rounds=2, top_k=10):
        heur = ShardedRetrievalEngine(_corpus(datasets),
                                      candidates_per_shard=m)
        ivf = ShardedRetrievalEngine(
            _corpus(datasets), candidates_per_shard=m,
            nominator=IVFNominator(n_cells=n_cells, nprobe=nprobe))
        merged = merge_datasets(datasets, merged_id="merged:test")
        relevant = _spiked_global_ids(merged)
        for _ in range(rounds):
            labels = {b: b in relevant for b in heur.rank()[:top_k]}
            heur.feed(labels)
            ivf.feed(labels)
        return heur, ivf

    def test_exhaustive_probe_ranking_identical(self, three_clips):
        """nprobe == n_cells probes every cell — by definition a full
        scan — so the final ranking must equal the heuristic-nominated
        two-stage ranking, round for round."""
        heur, ivf = self._fed_pair(three_clips, n_cells=8, nprobe=8)
        assert ivf.rank() == heur.rank()

    def test_untrained_round_falls_back_to_heuristic(self, three_clips):
        heur = ShardedRetrievalEngine(_corpus(three_clips),
                                      candidates_per_shard=4)
        ivf = ShardedRetrievalEngine(
            _corpus(three_clips), candidates_per_shard=4,
            nominator=IVFNominator(n_cells=8, nprobe=1))
        assert ivf.rank() == heur.rank()

    def test_partial_probe_keeps_candidate_contract(self, three_clips):
        m = 4
        _, ivf = self._fed_pair(three_clips, m=m, n_cells=8, nprobe=2)
        ranking = ivf.rank()
        assert sorted(ranking) == list(
            range(sum(len(d.bags) for d in three_clips)))
        # The round ranks its candidates first.
        nominated = ranking[:ivf.last_round_stats["bags_scored"]]
        queries = ivf._query_vectors_raw()
        candidate_ids = set()
        for shard in ivf.corpus.shards():
            positions, _ = ivf.nominator.nominate(shard, queries, m)
            assert len(positions) <= m
            assert len(np.unique(positions)) == len(positions)
            candidate_ids |= {int(shard.bag_offset + p) for p in positions}
        assert set(nominated) == candidate_ids

    def test_partial_probe_recalls_exact_top_20(self):
        """Eight spiked clips, two oracle rounds: probing 2 of 16 cells
        recovers the exhaustive exact top 20 (recall@20 >= 0.95) while
        handing at most a quarter of the bags to the exact rerank."""
        datasets = [_clip(f"cam{i:02d}", 120, seed=100 + i, spike_every=12,
                          window=6, features=4, instances_per_bag=4)
                    for i in range(8)]
        merged = merge_datasets(datasets, merged_id="merged:test")
        relevant = _spiked_global_ids(merged)
        exact = ShardedRetrievalEngine(_corpus(datasets))
        ivf = ShardedRetrievalEngine(
            _corpus(datasets), nominator=IVFNominator(n_cells=16, nprobe=2))
        for _ in range(2):
            labels = {b: b in relevant for b in exact.top_k(20)}
            exact.feed(labels)
            ivf.feed(labels)
        exact_top, top = exact.top_k(20), ivf.top_k(20)
        assert exact.last_round_stats["bags_scanned_fraction"] == 1.0
        assert len(set(top) & set(exact_top)) / 20 >= 0.95
        assert ivf.last_round_stats["bags_scanned_fraction"] <= 0.25

    def test_ivf_index_memoized_per_n_cells(self, three_clips):
        d = three_clips[0]
        shard = CorpusShard(
            ShardSpec(clip_id=d.clip_id, n_bags=len(d.bags),
                      n_instances=d.n_instances, loader=lambda: d), 0, 0)
        built = shard.ivf_index(n_cells=8)
        assert built.n_bags == shard.n_bags
        assert shard.ivf_index(n_cells=8) is built
        # another cell count builds its own index, and keeps the first
        other = shard.ivf_index(n_cells=4)
        assert other is not built and other.n_cells <= 4
        assert shard.ivf_index(n_cells=8) is built

    def test_nominator_validation(self, three_clips):
        corpus = _corpus(three_clips)
        with pytest.raises(ConfigurationError, match="nominator"):
            ShardedRetrievalEngine(corpus, nominator="faiss")
        with pytest.raises(ConfigurationError, match="nominator must be"):
            ShardedRetrievalEngine(corpus, nominator=object())
        with pytest.raises(ConfigurationError, match="nprobe"):
            IVFNominator(nprobe=0)
        with pytest.raises(ConfigurationError, match="n_cells"):
            IVFNominator(n_cells=0)


class TestCandidateMemoization:
    def test_candidate_positions_cached_per_m(self, three_clips):
        shard = _corpus(three_clips).shard("a")
        shard.candidate_positions(4)
        assert shard.heuristic_order_computes == 1
        shard.candidate_positions(4)
        shard.candidate_positions(2)
        shard.candidate_positions(None)
        assert shard.heuristic_order_computes == 1


class TestShardedEngineState:
    def test_feed_rejects_unknown_ids_atomically(self, three_clips):
        engine = ShardedRetrievalEngine(_corpus(three_clips))
        before = engine.rank()
        with pytest.raises(ConfigurationError, match="unknown bag ids"):
            engine.feed({0: True, 10_000: True})
        assert engine.labels == {}
        assert not engine.is_trained
        assert engine.rank() == before

    def test_gram_cache_reused_across_rounds(self, three_clips):
        corpus = _corpus(three_clips)
        engine = ShardedRetrievalEngine(corpus)
        merged = merge_datasets(three_clips, merged_id="merged:test")
        relevant = sorted(_spiked_global_ids(merged))
        engine.feed({relevant[0]: True})
        engine.rank()
        engine.feed({relevant[1]: True})
        engine.rank()
        hits = sum(s.gram_cache.hits for s in corpus.shards()
                   if s.gram_cache is not None)
        assert hits > 0

    def test_training_stats_match_monolith(self, three_clips):
        merged = merge_datasets(three_clips, merged_id="merged:test")
        mono = MILRetrievalEngine(merged)
        sharded = ShardedRetrievalEngine(_corpus(three_clips))
        labels = {b: b in _spiked_global_ids(merged)
                  for b in mono.top_k(10)}
        mono.feed(labels)
        sharded.feed(labels)
        assert sharded.last_nu_ == mono.last_nu_
        assert sharded.training_size_ == mono.training_size_

    def test_validation(self, three_clips):
        corpus = _corpus(three_clips)
        with pytest.raises(ConfigurationError,
                           match="candidates_per_shard"):
            ShardedRetrievalEngine(corpus, candidates_per_shard=0)
        with pytest.raises(ConfigurationError, match="learner"):
            ShardedRetrievalEngine(corpus, learner="forest")
        with pytest.raises(ConfigurationError, match="positive"):
            ShardedRetrievalEngine(corpus).top_k(0)
        empty = MILDataset(clip_id="x", event_name="accident",
                           feature_names=("f0",), window_size=1,
                           sampling_rate=5, bags=[])
        with pytest.raises(ConfigurationError, match="no bags"):
            ShardedRetrievalEngine(_corpus([empty]))

    def test_top_k_consumes_lazy_prefix(self, three_clips):
        engine = ShardedRetrievalEngine(_corpus(three_clips),
                                        candidates_per_shard=4)
        top = engine.top_k(3)
        assert len(top) == 3
        assert top == engine.rank()[:3]
