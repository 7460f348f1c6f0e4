"""Tests for active (uncertainty-sampling) relevance feedback."""

import pytest

from repro.core import (
    MILRetrievalEngine,
    MultiClipOracle,
    OracleUser,
    RetrievalSession,
)
from repro.core.active import ActiveRetrievalSession
from repro.core.sharded import (
    ShardedCorpus,
    ShardedRetrievalEngine,
    ShardSpec,
)
from repro.errors import ConfigurationError
from repro.eval import build_artifacts
from tests.core.conftest import make_toy


class TestActiveRetrievalSession:
    def _sessions(self, explore_k=3, top_k=10, seed=0):
        ds, gt = make_toy(n_event=8, n_brake=10, n_normal=20, seed=seed)
        passive = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=top_k)
        active = ActiveRetrievalSession(MILRetrievalEngine(ds),
                                        OracleUser(gt), top_k=top_k,
                                        explore_k=explore_k)
        return ds, gt, passive, active

    def test_round_still_returns_top_k_bags(self):
        _, _, _, active = self._sessions()
        result = active.run_round()
        assert len(result.returned_bag_ids) == 10
        assert len(set(result.returned_bag_ids)) == 10

    def test_explores_unlabeled_bags(self):
        _, _, _, active = self._sessions()
        first = set(active.run_round().returned_bag_ids)
        second = set(active.run_round().returned_bag_ids)
        # At least the exploration slots look at bags outside round 1.
        assert second - first

    def test_explore_zero_equals_passive(self):
        ds, gt, _, _ = self._sessions()
        passive = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10)
        active0 = ActiveRetrievalSession(MILRetrievalEngine(ds),
                                         OracleUser(gt), top_k=10,
                                         explore_k=0)
        passive.run(3)
        active0.run(3)
        assert passive.accuracies() == active0.accuracies()

    def test_finds_at_least_as_many_relevant(self):
        ds, gt, passive, active = self._sessions()
        passive.run(4)
        active.run(4)
        def found(session):
            return sum(1 for v in session.engine.labels.values() if v)
        assert found(active) >= found(passive) - 1

    def test_ranking_accuracy_helper(self):
        ds, gt, _, active = self._sessions()
        rel = {b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)}
        active.run(3)
        acc = active.ranking_accuracy(rel)
        assert 0.0 <= acc <= 1.0

    def test_validation(self):
        ds, gt, _, _ = self._sessions()
        with pytest.raises(ConfigurationError):
            ActiveRetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10, explore_k=10)
        with pytest.raises(ConfigurationError):
            ActiveRetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10, explore_k=-1)

    def test_exploration_exhausts_gracefully(self):
        """When every bag is labeled, rounds still return top-k."""
        ds, gt, _, _ = self._sessions()
        active = ActiveRetrievalSession(MILRetrievalEngine(ds),
                                        OracleUser(gt),
                                        top_k=len(ds.bags), explore_k=2)
        active.run(2)  # first round labels everything
        result = active.rounds[-1]
        assert len(result.returned_bag_ids) == len(ds.bags)

    def test_explores_a_multi_clip_corpus(self, small_tunnel,
                                          small_intersection):
        """Exploration walks global bag ids, so a corpus over two clips
        (which has no ``bags`` list of its own) explores both."""
        clips = [build_artifacts(sim, mode="oracle")
                 for sim in (small_tunnel, small_intersection)]
        specs = [ShardSpec(clip_id=a.dataset.clip_id,
                           n_bags=len(a.dataset.bags),
                           n_instances=a.dataset.n_instances,
                           loader=(lambda a=a: a.dataset))
                 for a in clips]
        engine = ShardedRetrievalEngine(ShardedCorpus(specs))
        oracle = MultiClipOracle(
            {a.result.name: a.ground_truth for a in clips})
        active = ActiveRetrievalSession(engine, oracle, top_k=10,
                                        explore_k=3)
        labelled: set[int] = set()
        for _ in range(3):
            shown = active.run_round().returned_bag_ids
            assert len(shown) == len(set(shown)) == 10
            # the explore slots hold bags no earlier round labelled
            assert not set(shown[7:]) & labelled
            labelled |= set(shown)
        assert {engine.dataset.bag_by_id(b).clip_id
                for b in engine.labels} == {a.result.name for a in clips}
