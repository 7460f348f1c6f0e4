"""Tests for the weighted relevance-feedback baseline (Section 6.2)."""

import numpy as np
import pytest

from repro.core import (
    OracleUser,
    RetrievalSession,
    WeightedRFEngine,
    heuristic_scores,
)
from repro.core.weighted_rf import WeightedRFFit, normalize_weights
from repro.errors import ConfigurationError
from tests.core.conftest import make_toy


class TestNormalizeWeights:
    def test_percentage_sums_to_one(self):
        w = normalize_weights(np.array([1.0, 3.0, 6.0]), "percentage")
        assert w.sum() == pytest.approx(1.0)
        assert w[2] > w[1] > w[0]

    def test_linear_maps_to_unit_interval(self):
        w = normalize_weights(np.array([2.0, 4.0, 6.0]), "linear")
        assert w == pytest.approx([0.0, 0.5, 1.0])

    def test_linear_zero_weight_kills_feature(self):
        """The paper's reported drawback of linear normalization."""
        w = normalize_weights(np.array([2.0, 4.0, 6.0]), "linear")
        assert w[0] == 0.0

    def test_none_passthrough(self):
        raw = np.array([2.0, 4.0])
        assert np.array_equal(normalize_weights(raw, "none"), raw)

    def test_degenerate_equal_weights(self):
        w = normalize_weights(np.array([3.0, 3.0]), "linear")
        assert np.array_equal(w, [1.0, 1.0])

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            normalize_weights(np.array([1.0]), "softmax")


class TestWeightedRFEngine:
    def test_initial_weights_are_ones(self, toy):
        """Before any fit the engine ranks by the heuristic, which is the
        rule under all-ones weights, bit for bit."""
        ds, _ = toy
        engine = WeightedRFEngine(ds)
        assert engine.fitted is None
        assert np.array_equal(engine.bag_scores(), heuristic_scores(ds)[0])
        ones = WeightedRFFit(np.ones(3))
        assert np.array_equal(ones.decisions(engine.shard),
                              engine.shard.heuristic_instances)

    def test_initial_ranking_equals_mil_initial(self, toy):
        """Both methods share the Initial round (paper Section 6.2)."""
        from repro.core import MILRetrievalEngine

        ds, _ = toy
        assert WeightedRFEngine(ds).rank() == MILRetrievalEngine(ds).rank()

    def test_weights_update_after_feedback(self, toy):
        ds, gt = toy
        engine = WeightedRFEngine(ds)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)][:4]
        engine.feed({b: True for b in rel})
        assert not np.array_equal(engine.fitted.weights, np.ones(3))
        assert engine.fitted.weights.sum() == pytest.approx(1.0)  # percentage

    def test_irrelevant_only_feedback_keeps_weights(self, toy):
        ds, gt = toy
        engine = WeightedRFEngine(ds)
        before = engine.rank()
        irrel = [b.bag_id for b in ds.bags
                 if not gt.label_window(b.frame_lo, b.frame_hi)][:4]
        engine.feed({b: False for b in irrel})
        assert engine.fitted is None
        assert engine.rank() == before

    def test_low_variance_feature_gets_high_weight(self, toy):
        ds, gt = toy
        engine = WeightedRFEngine(ds)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)]
        engine.feed({b: True for b in rel})
        # Relevant instances vary most in vdiff (the spike feature), so
        # vdiff gets the SMALLEST weight: the baseline's known blind spot.
        assert engine.fitted.weights[1] == min(engine.fitted.weights)

    @pytest.mark.parametrize("norm", ["percentage", "linear", "none"])
    def test_all_normalizations_run(self, toy, norm):
        ds, gt = toy
        engine = WeightedRFEngine(ds, normalization=norm)
        session = RetrievalSession(engine, OracleUser(gt), top_k=10)
        accs = [r.accuracy() for r in session.run(3)]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_unknown_normalization_rejected(self, toy):
        ds, _ = toy
        with pytest.raises(ConfigurationError):
            WeightedRFEngine(ds, normalization="bogus")

    def test_cannot_separate_brake_from_event(self):
        """Sign-blind scoring keeps confusing brakes with events — the
        structural weakness the paper's Figure 9 exposes."""
        ds, gt = make_toy(n_event=8, n_brake=8, n_normal=16, seed=5)
        engine = WeightedRFEngine(ds)
        rel = [b.bag_id for b in ds.bags
               if gt.label_window(b.frame_lo, b.frame_hi)]
        engine.feed({b: (b in rel) for b in [b.bag_id for b in ds.bags][:20]})
        scores = engine.bag_scores()
        rel_mask = np.array([b.bag_id in rel for b in ds.bags])
        brake_mask = np.array([
            (not gt.label_window(b.frame_lo, b.frame_hi))
            and max(np.abs(i.matrix[:, 1]).max() for i in b.instances) > 0.8
            for b in ds.bags
        ])
        # Brake bags score comparably to event bags under weighted RF.
        assert scores[brake_mask].mean() > 0.5 * scores[rel_mask].mean()
