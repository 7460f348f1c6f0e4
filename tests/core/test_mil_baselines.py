"""Tests for the Diverse Density and EM-DD extension baselines."""

import numpy as np
import pytest

from repro.core import DiverseDensityEngine, EMDDEngine, OracleUser, RetrievalSession
from repro.core.diverse_density import (
    dd_instance_prob,
    dd_negative_log_likelihood,
)
from tests.core.conftest import make_toy


class TestDDProbability:
    def test_prob_one_at_target(self):
        target = np.array([1.0, -2.0])
        p = dd_instance_prob(target, target, np.ones(2))
        assert p[0] == pytest.approx(1.0)

    def test_prob_decays_with_distance(self):
        target = np.zeros(2)
        near = dd_instance_prob(np.array([[0.1, 0.0]]), target, np.ones(2))
        far = dd_instance_prob(np.array([[2.0, 0.0]]), target, np.ones(2))
        assert near[0] > far[0]

    def test_scales_modulate_sensitivity(self):
        target = np.zeros(2)
        x = np.array([[1.0, 0.0]])
        tight = dd_instance_prob(x, target, np.array([3.0, 1.0]))
        loose = dd_instance_prob(x, target, np.array([0.3, 1.0]))
        assert tight[0] < loose[0]


class TestDDObjective:
    def test_nll_lower_when_target_on_positive_instances(self):
        rng = np.random.default_rng(0)
        concept = np.array([2.0, 2.0])
        positives = [concept + rng.normal(0, 0.1, size=(3, 2))
                     for _ in range(4)]
        negatives = [rng.normal(-2.0, 0.3, size=(3, 2)) for _ in range(4)]
        good = np.concatenate([concept, np.ones(2)])
        bad = np.concatenate([-concept, np.ones(2)])
        assert (dd_negative_log_likelihood(good, positives, negatives)
                < dd_negative_log_likelihood(bad, positives, negatives))

    def test_noisy_or_rewards_any_hit(self):
        concept = np.zeros(2)
        bag_with_hit = [np.array([[0.0, 0.0], [5.0, 5.0]])]
        bag_without = [np.array([[5.0, 5.0], [6.0, 6.0]])]
        params = np.concatenate([concept, np.ones(2)])
        assert (dd_negative_log_likelihood(params, bag_with_hit, [])
                < dd_negative_log_likelihood(params, bag_without, []))


class TestEngines:
    @pytest.mark.parametrize("engine_cls", [DiverseDensityEngine, EMDDEngine])
    def test_improves_over_initial_on_toy(self, engine_cls):
        ds, gt = make_toy(n_event=6, n_brake=6, n_normal=12, seed=2)
        engine = engine_cls(ds, max_starts=4)
        session = RetrievalSession(engine, OracleUser(gt), top_k=8)
        accs = [r.accuracy() for r in session.run(3)]
        assert accs[-1] >= accs[0]

    @pytest.mark.parametrize("engine_cls", [DiverseDensityEngine, EMDDEngine])
    def test_uses_negative_bags(self, engine_cls, toy):
        ds, gt = toy
        engine = engine_cls(ds, max_starts=3)
        labels = {}
        for bag in ds.bags[:12]:
            labels[bag.bag_id] = gt.label_window(bag.frame_lo, bag.frame_hi)
        engine.feed(labels)
        assert engine.fitted is not None
        assert engine.fitted.target.shape == (9,)
        assert engine.fitted.scales.shape == (9,)
        assert np.isfinite(engine.fitted.nll)

    @pytest.mark.parametrize("engine_cls", [DiverseDensityEngine, EMDDEngine])
    def test_heuristic_until_relevant_feedback(self, engine_cls, toy):
        ds, _ = toy
        engine = engine_cls(ds)
        before = engine.rank()
        engine.feed({before[0]: False})
        assert engine.rank() == before

    def test_dd_finds_event_concept(self):
        """The learned target sits nearer the event cluster than normal."""
        ds, gt = make_toy(n_event=8, n_brake=0, n_normal=16, seed=4)
        engine = DiverseDensityEngine(ds, max_starts=4)
        labels = {b.bag_id: gt.label_window(b.frame_lo, b.frame_hi)
                  for b in ds.bags}
        engine.feed(labels)
        scores = engine.bag_scores()
        rel = np.array([gt.label_window(b.frame_lo, b.frame_hi)
                        for b in ds.bags])
        assert scores[rel].mean() > scores[~rel].mean()

    def test_validation(self, toy):
        ds, _ = toy
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DiverseDensityEngine(ds, max_starts=0)

    @pytest.mark.parametrize("em_iterations", [0, -1])
    def test_em_iterations_validated(self, toy, em_iterations):
        """Fewer than one EM iteration keeps no start: rejected up front
        instead of failing the first feed with a bare AssertionError."""
        ds, _ = toy
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="em_iterations"):
            EMDDEngine(ds, em_iterations=em_iterations)
