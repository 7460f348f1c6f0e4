"""IVF nomination over live shards: appended bags are never invisible.

A streamed append leaves the shard's memoized IVF index covering only a
prefix of the bags — probing it can never nominate the tail.  The
nominator must detect the stale index (``index.n_bags <
shard.n_bags``) and either route the un-indexed tail through stage two
explicitly (small tails) or rebuild the index (past
``rebuild_tail_fraction``).  The hypothesis property pins the headline
guarantee: nomination recall over appended bags is never zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bags import Bag, Instance, MILDataset
from repro.core.sharded import (
    IVFNominator,
    ShardSpec,
    ShardedCorpus,
    ShardedRetrievalEngine,
)
from repro.errors import ConfigurationError
from repro.obs import Telemetry, set_telemetry


def make_bags(n_bags, *, start=0, seed=0, n_inst=2):
    rng = np.random.default_rng(seed + 31 * start)
    bags = []
    for b in range(start, start + n_bags):
        instances = tuple(
            Instance(instance_id=0, bag_id=b, track_id=b * 10 + j,
                     matrix=rng.normal(size=(3, 2)) + 2.0 * (b % 4))
            for j in range(n_inst)
        )
        bags.append(Bag(bag_id=b, clip_id="clip", frame_lo=b * 10,
                        frame_hi=b * 10 + 9, instances=instances))
    return bags


def live_corpus(bags):
    """A single-shard corpus over a mutable bag list."""
    def load():
        return MILDataset(clip_id="clip", event_name="accident",
                          feature_names=("f0", "f1"), window_size=3,
                          sampling_rate=5, bags=list(bags))
    spec = ShardSpec(clip_id="clip", n_bags=len(bags),
                     n_instances=sum(b.n_instances for b in bags),
                     loader=load)
    return ShardedCorpus([spec], corpus_id="live")


def grow(corpus, bags, n_new, *, seed=0, n_inst=2):
    bags.extend(make_bags(n_new, start=len(bags), seed=seed,
                          n_inst=n_inst))
    corpus.refresh("clip", n_bags=len(bags),
                   n_instances=sum(b.n_instances for b in bags))


def nominated_positions(engine):
    """The round's candidates: it ranks them first, and the one shard's
    positions are its bag ids."""
    ranking = engine.rank()
    return set(ranking[:engine.last_round_stats["bags_scored"]])


@pytest.fixture()
def fresh_telemetry():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


class TestStaleTailProperty:
    @given(n_initial=st.integers(2, 6), n_tail=st.integers(1, 4),
           n_inst=st.integers(1, 3), n_cells=st.integers(1, 5),
           nprobe=st.integers(1, 3), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_appended_bag_recall_is_never_zero(
            self, n_initial, n_tail, n_inst, n_cells, nprobe, seed):
        """With no candidate cap, every appended bag is nominated —
        recall over the tail is exactly 1, for arbitrary shard shapes,
        cell counts, and probe widths."""
        bags = make_bags(n_initial, seed=seed, n_inst=n_inst)
        corpus = live_corpus(bags)
        engine = ShardedRetrievalEngine(
            corpus, nominator=IVFNominator(
                n_cells=n_cells, nprobe=nprobe,
                rebuild_tail_fraction=1.0))
        engine.feed({0: True})   # builds + memoizes the IVF index
        engine.rank()
        grow(corpus, bags, n_tail, seed=seed + 1, n_inst=n_inst)
        tail = set(range(n_initial, n_initial + n_tail))
        nominated = nominated_positions(engine)
        recall = len(nominated & tail) / len(tail)
        assert recall == 1.0

    @given(n_initial=st.integers(3, 7), n_tail=st.integers(1, 3),
           m=st.integers(1, 6), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_capped_nomination_keeps_heuristic_tail_bags(
            self, n_initial, n_tail, m, seed):
        """Under a top-M cap, any tail bag the heuristic baseline would
        surface (prefilter rank < M) survives IVF nomination too."""
        bags = make_bags(n_initial, seed=seed)
        corpus = live_corpus(bags)
        engine = ShardedRetrievalEngine(
            corpus, candidates_per_shard=m,
            nominator=IVFNominator(n_cells=3, nprobe=1,
                                   rebuild_tail_fraction=1.0))
        engine.feed({0: True})
        engine.rank()
        grow(corpus, bags, n_tail, seed=seed + 1)
        shard = corpus.shard("clip")
        tail = set(range(n_initial, n_initial + n_tail))
        baseline_tail = {p for p in tail if shard.heuristic_rank[p] < m}
        nominated = nominated_positions(engine)
        assert baseline_tail <= nominated
        assert len(nominated) <= m


class TestRoutingAndRebuild:
    def _warm_engine(self, bags, **nominator_kwargs):
        corpus = live_corpus(bags)
        kwargs = dict(n_cells=4, nprobe=1)
        kwargs.update(nominator_kwargs)
        engine = ShardedRetrievalEngine(
            corpus, nominator=IVFNominator(**kwargs))
        engine.feed({0: True})
        engine.rank()
        return corpus, engine

    def test_small_tail_routed_without_rebuild(self, fresh_telemetry):
        bags = make_bags(8)
        corpus, engine = self._warm_engine(bags)
        shard = corpus.shard("clip")
        index_before = shard.ivf_index(n_cells=4)
        grow(corpus, bags, 2)  # tail 2 < 0.5 * 10: below the threshold
        nominated = nominated_positions(engine)
        assert {8, 9} <= nominated
        assert fresh_telemetry.counter(
            "index.stale_tail_routed").value() == 2
        assert fresh_telemetry.counter("index.rebuilds").value() == 0
        # The memoized index was kept, still covering only the prefix.
        assert shard.ivf_index(n_cells=4) is index_before
        assert index_before.n_bags == 8

    def test_large_tail_triggers_rebuild(self, fresh_telemetry):
        bags = make_bags(8)
        corpus, engine = self._warm_engine(
            bags, rebuild_tail_fraction=0.2)
        shard = corpus.shard("clip")
        grow(corpus, bags, 4)  # tail 4 >= 0.2 * 12: rebuild
        engine.rank()
        assert fresh_telemetry.counter("index.rebuilds").value() == 1
        assert fresh_telemetry.counter(
            "index.stale_tail_routed").value() == 0
        assert shard.ivf_index(n_cells=4).n_bags == shard.n_bags

    def test_ranking_covers_whole_corpus_after_append(self):
        bags = make_bags(8)
        corpus, engine = self._warm_engine(bags)
        grow(corpus, bags, 2)
        assert sorted(engine.rank()) == list(range(10))

    def test_rebuild_tail_fraction_validated(self):
        with pytest.raises(ConfigurationError,
                           match="rebuild_tail_fraction"):
            IVFNominator(rebuild_tail_fraction=0.0)
        with pytest.raises(ConfigurationError,
                           match="rebuild_tail_fraction"):
            IVFNominator(rebuild_tail_fraction=1.5)
        assert IVFNominator(
            rebuild_tail_fraction=1.0).rebuild_tail_fraction == 1.0
