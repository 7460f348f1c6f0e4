"""Tests for the oracle user and retrieval session."""

import pytest

from repro.core import MILRetrievalEngine, OracleUser, RetrievalSession
from repro.errors import ConfigurationError


class TestOracleUser:
    def test_labels_follow_ground_truth(self, toy):
        ds, gt = toy
        user = OracleUser(gt)
        for bag in ds.bags:
            assert user.label(bag) == gt.label_window(bag.frame_lo,
                                                       bag.frame_hi)

    def test_kind_filter(self, toy):
        ds, gt = toy
        user = OracleUser(gt, kinds=["u_turn"])  # nothing matches
        assert not any(user.label(b) for b in ds.bags)

    def test_flip_prob_adds_noise(self, toy):
        ds, gt = toy
        noisy = OracleUser(gt, flip_prob=1.0, seed=1)
        clean = OracleUser(gt, seed=1)
        flips = sum(noisy.label(b) != clean.label(b) for b in ds.bags)
        assert flips == len(ds.bags)

    def test_flip_prob_validated(self, toy):
        _, gt = toy
        with pytest.raises(ConfigurationError):
            OracleUser(gt, flip_prob=1.5)

    def test_label_bags_returns_map(self, toy):
        ds, gt = toy
        labels = OracleUser(gt).label_bags(ds.bags[:5])
        assert set(labels) == {b.bag_id for b in ds.bags[:5]}


class TestRetrievalSession:
    def test_round_structure(self, toy):
        ds, gt = toy
        session = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10)
        rounds = session.run(3)
        assert [r.round_index for r in rounds] == [0, 1, 2]
        for r in rounds:
            assert len(r.returned_bag_ids) == 10
            assert set(r.labels) == set(r.returned_bag_ids)

    def test_accuracy_definition(self, toy):
        ds, gt = toy
        session = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10)
        result = session.run_round()
        expected = sum(result.labels.values()) / 10
        assert result.accuracy() == pytest.approx(expected)

    def test_labels_feed_engine(self, toy):
        ds, gt = toy
        engine = MILRetrievalEngine(ds)
        session = RetrievalSession(engine, OracleUser(gt), top_k=10)
        session.run_round()
        assert len(engine.labels) == 10

    def test_top_k_larger_than_dataset(self, toy):
        ds, gt = toy
        session = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10_000)
        result = session.run_round()
        assert len(result.returned_bag_ids) == len(ds.bags)

    def test_validation(self, toy):
        ds, gt = toy
        with pytest.raises(ConfigurationError):
            RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                             top_k=0)
        with pytest.raises(ConfigurationError):
            RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                             top_k=5).run(0)

    def test_accuracies_helper(self, toy):
        ds, gt = toy
        session = RetrievalSession(MILRetrievalEngine(ds), OracleUser(gt),
                                   top_k=10)
        session.run(4)
        accs = session.accuracies()
        assert len(accs) == 4
        assert all(0.0 <= a <= 1.0 for a in accs)
