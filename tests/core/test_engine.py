"""Tests for the One-class-SVM MIL retrieval engine (paper Section 5)."""

import numpy as np
import pytest

from repro.core import (
    DiverseDensityEngine,
    EMDDEngine,
    MILRetrievalEngine,
    OracleUser,
    RetrievalSession,
    WeightedRFEngine,
)
from repro.core.rule import parse_policy
from repro.errors import ConfigurationError
from tests.core.conftest import make_toy


class TestPolicyParsing:
    def test_all(self):
        assert parse_policy("all") is None

    @pytest.mark.parametrize("policy,m", [("top1", 1), ("top2", 2),
                                          ("top10", 10)])
    def test_top_m(self, policy, m):
        assert parse_policy(policy) == m

    @pytest.mark.parametrize("policy", ["top0", "top-1", "best", "topx"])
    def test_invalid(self, policy):
        with pytest.raises(ConfigurationError):
            parse_policy(policy)


class TestInitialRanking:
    def test_matches_heuristic_before_feedback(self, toy):
        ds, _ = toy
        from repro.core.heuristics import heuristic_scores

        engine = MILRetrievalEngine(ds)
        bag_scores, _ = heuristic_scores(ds)
        expected = [ds.bags[i].bag_id for i in np.argsort(-bag_scores,
                                                          kind="stable")]
        # Ties broken by bag id in both.
        assert set(engine.top_k(10)) == set(expected[:10])

    def test_rank_is_a_permutation(self, toy):
        ds, _ = toy
        ranking = MILRetrievalEngine(ds).rank()
        assert sorted(ranking) == sorted(b.bag_id for b in ds.bags)

    def test_top_k_validation(self, toy):
        ds, _ = toy
        with pytest.raises(ConfigurationError):
            MILRetrievalEngine(ds).top_k(0)


class TestFeedback:
    def test_labels_accumulate(self, toy):
        ds, _ = toy
        engine = MILRetrievalEngine(ds)
        engine.feed({0: True, 1: False})
        engine.feed({2: True})
        assert set(engine.relevant_bag_ids) <= {0, 2}
        assert len(engine.labels) == 3

    def test_unknown_bag_rejected(self, toy):
        ds, _ = toy
        with pytest.raises(ConfigurationError, match="unknown bag"):
            MILRetrievalEngine(ds).feed({9999: True})

    @pytest.mark.parametrize("engine_cls", [
        MILRetrievalEngine, WeightedRFEngine, DiverseDensityEngine,
        EMDDEngine])
    @pytest.mark.parametrize("bad", [1.5, "3", "x"])
    def test_non_integer_bag_ids_rejected(self, toy, engine_cls, bad):
        """A float or string key never labels a bag (``1.5`` used to
        label bag 1): the round is rejected before any state changes."""
        ds, _ = toy
        engine = engine_cls(ds)
        engine.feed({np.int64(4): False})
        with pytest.raises(ConfigurationError, match="must be integers"):
            engine.feed({2: True, bad: True})
        assert engine.labels == {4: False}
        assert not engine.is_trained

    def test_no_relevant_feedback_keeps_heuristic(self, toy):
        ds, _ = toy
        engine = MILRetrievalEngine(ds)
        before = engine.rank()
        engine.feed({before[-1]: False})
        assert engine.rank() == before
        assert not engine.has_relevant_feedback

    def test_nu_follows_eq9(self, toy_multi):
        ds, gt = toy_multi
        engine = MILRetrievalEngine(ds, training_policy="all", z=0.05)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)][:5]
        engine.feed({b: True for b in rel})
        h, H = len(rel), engine.training_size_
        assert H == 3 * h  # policy 'all', 3 instances per bag
        assert engine.last_nu_ == pytest.approx(1 - (h / H + 0.05))

    def test_nu_clipped_at_bounds(self, toy):
        ds, gt = toy
        engine = MILRetrievalEngine(ds, training_policy="top1",
                                    nu_bounds=(0.05, 0.95))
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)][:4]
        engine.feed({b: True for b in rel})
        assert engine.last_nu_ == 0.05  # 1 - (1 + z) clipped up to the min

    def test_relabelled_irrelevant_forgets_nu_and_training_size(self, toy):
        """Regression: nu and H outlived the fit they described."""
        ds, gt = toy
        engine = MILRetrievalEngine(ds)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)][:3]
        engine.feed({b: True for b in rel})
        assert (engine.last_nu_, engine.training_size_) == (0.05, 3)
        engine.feed({b: False for b in rel})
        assert not engine.is_trained
        assert (engine.last_nu_, engine.training_size_) == (None, 0)

    def test_top1_training_size(self, toy_multi):
        ds, gt = toy_multi
        engine = MILRetrievalEngine(ds, training_policy="top1")
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)][:6]
        engine.feed({b: True for b in rel})
        assert engine.training_size_ == 6


class TestLearningBehaviour:
    def test_accuracy_improves_on_toy(self, toy):
        """On confusable toy data, MIL beats its own initial round."""
        ds, gt = toy
        engine = MILRetrievalEngine(ds)
        session = RetrievalSession(engine, OracleUser(gt), top_k=10)
        accs = [r.accuracy() for r in session.run(4)]
        assert accs[-1] >= accs[0]
        assert max(accs[1:]) > accs[0]

    def test_separates_brake_from_event(self):
        """After feedback, brake-and-resume bags fall below event bags."""
        ds, gt = make_toy(n_event=8, n_brake=8, n_normal=16, seed=5)
        engine = MILRetrievalEngine(ds)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)]
        engine.feed({b: (b in rel) for b in [b.bag_id for b in ds.bags][:20]})
        scores = engine.bag_scores()
        rel_mask = np.array([b.bag_id in rel for b in ds.bags])
        assert scores[rel_mask].mean() > scores[~rel_mask].mean()

    def test_validation_of_params(self, toy):
        ds, _ = toy
        with pytest.raises(ConfigurationError):
            MILRetrievalEngine(ds, z=0.9)
        with pytest.raises(ConfigurationError):
            MILRetrievalEngine(ds, training_policy="bogus")
        with pytest.raises(ConfigurationError):
            MILRetrievalEngine(ds, nu_bounds=(0.0, 0.5))

    def test_empty_dataset_rejected(self):
        from repro.core.bags import MILDataset

        ds = MILDataset(clip_id="x", event_name="accident",
                        feature_names=("a",), window_size=3, sampling_rate=5)
        with pytest.raises(ConfigurationError, match="no bags"):
            MILRetrievalEngine(ds)

    def test_non_positional_ids_rejected(self, toy):
        from repro.core.bags import Bag, Instance, MILDataset

        ds, _ = toy

        def renumbered(bag_shift=0, inst_shift=0):
            bags = [
                Bag(bag_id=b.bag_id + bag_shift, clip_id=b.clip_id,
                    frame_lo=b.frame_lo, frame_hi=b.frame_hi,
                    instances=tuple(
                        Instance(instance_id=i.instance_id + inst_shift,
                                 bag_id=b.bag_id + bag_shift,
                                 track_id=i.track_id, matrix=i.matrix)
                        for i in b.instances))
                for b in ds.bags
            ]
            return MILDataset(
                clip_id=ds.clip_id, event_name=ds.event_name,
                feature_names=ds.feature_names,
                window_size=ds.window_size,
                sampling_rate=ds.sampling_rate, bags=bags)

        for bad in (renumbered(bag_shift=1), renumbered(inst_shift=7)):
            with pytest.raises(ConfigurationError,
                               match="not positionally numbered"):
                MILRetrievalEngine(bad)
        swapped = renumbered()
        swapped.bags[0], swapped.bags[1] = swapped.bags[1], swapped.bags[0]
        with pytest.raises(ConfigurationError,
                           match="not positionally numbered"):
            MILRetrievalEngine(swapped)
        assert MILRetrievalEngine(renumbered()).rank()

    def test_deterministic(self, toy):
        ds, gt = toy
        runs = []
        for _ in range(2):
            engine = MILRetrievalEngine(ds)
            session = RetrievalSession(engine, OracleUser(gt), top_k=10)
            session.run(3)
            runs.append(session.accuracies())
        assert runs[0] == runs[1]

    def test_linear_kernel_variant(self, toy):
        ds, gt = toy
        engine = MILRetrievalEngine(ds, kernel="linear")
        session = RetrievalSession(engine, OracleUser(gt), top_k=10)
        accs = [r.accuracy() for r in session.run(3)]
        assert all(0.0 <= a <= 1.0 for a in accs)
