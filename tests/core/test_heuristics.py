"""Tests for the initial heuristic ranking (paper Section 5.3)."""

import numpy as np
import pytest

from repro.core.heuristics import heuristic_scores, instance_point_scores
from tests.core.conftest import make_toy


class TestInstancePointScores:
    def test_square_sum(self):
        matrix = np.array([[1.0, 2.0], [0.0, 3.0]])
        scores = instance_point_scores(matrix)
        assert scores == pytest.approx([5.0, 9.0])

    def test_sign_blind(self):
        """The square sum cannot tell braking from accelerating."""
        up = instance_point_scores(np.array([[0.0, 2.0]]))
        down = instance_point_scores(np.array([[0.0, -2.0]]))
        assert up == pytest.approx(down)

    def test_weighted(self):
        matrix = np.array([[1.0, 2.0]])
        scores = instance_point_scores(matrix, weights=np.array([2.0, 0.5]))
        assert scores == pytest.approx([2.0 + 2.0])


class TestHeuristicScores:
    def test_max_over_points_and_instances(self, toy):
        ds, _ = toy
        bag_scores, inst_scores = heuristic_scores(ds)
        assert len(bag_scores) == len(ds.bags)
        for b, bag in enumerate(ds.bags):
            expected = max(inst_scores[i.instance_id] for i in bag.instances)
            assert bag_scores[b] == pytest.approx(expected)

    def test_event_bags_outrank_normal_bags(self, toy):
        ds, gt = toy
        bag_scores, _ = heuristic_scores(ds)
        rel = np.array([gt.label_window(b.frame_lo, b.frame_hi)
                        for b in ds.bags])
        assert bag_scores[rel].mean() > bag_scores[~rel].mean()

    def test_brake_confuses_the_heuristic(self):
        """A V-shaped brake scores ~ an event: that is the point of RF."""
        ds, gt = make_toy(n_event=4, n_brake=4, n_normal=0, seed=3)
        bag_scores, _ = heuristic_scores(ds)
        rel = np.array([gt.label_window(b.frame_lo, b.frame_hi)
                        for b in ds.bags])
        # Means within ~35% of each other: genuinely confusable.
        ratio = bag_scores[rel].mean() / bag_scores[~rel].mean()
        assert 0.6 < ratio < 1.6

    def test_empty_bag_scores_minus_inf(self):
        from repro.core.bags import Bag, MILDataset

        ds, _ = make_toy(n_event=1, n_brake=0, n_normal=1)
        ds.bags.append(Bag(bag_id=99, clip_id="toy", frame_lo=900,
                           frame_hi=914, instances=()))
        bag_scores, _ = heuristic_scores(ds)
        assert bag_scores[-1] == -np.inf


class TestFeatureMatrices:
    def test_raw_by_default(self, toy):
        """The paper scores raw features: no scaling before the square
        sum."""
        ds, _ = toy
        _, inst_scores = heuristic_scores(ds)
        for inst in ds.all_instances():
            assert inst_scores[inst.instance_id] == pytest.approx(
                float((inst.matrix ** 2).sum(axis=1).max()))

    def test_empty_dataset(self):
        from repro.core.bags import MILDataset

        ds = MILDataset(clip_id="x", event_name="accident",
                        feature_names=("a",), window_size=3,
                        sampling_rate=5)
        bag_scores, inst_scores = heuristic_scores(ds)
        assert len(bag_scores) == 0 and inst_scores == {}
