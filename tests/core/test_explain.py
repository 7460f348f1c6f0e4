"""Tests for the instance-explanation API."""

import numpy as np
import pytest

from repro.core import MILRetrievalEngine, OracleUser, RetrievalSession
from repro.core.sharded import InstanceExplanation
from repro.errors import ConfigurationError
from tests.core.conftest import make_toy


@pytest.fixture()
def engine_with_feedback():
    ds, gt = make_toy(instances_per_bag=3, seed=4)
    engine = MILRetrievalEngine(ds)
    session = RetrievalSession(engine, OracleUser(gt), top_k=10)
    session.run(2)
    return ds, gt, engine


class TestExplain:
    def test_one_explanation_per_instance(self, engine_with_feedback):
        ds, _, engine = engine_with_feedback
        bag = ds.bags[0]
        explanations = engine.explain(bag.bag_id)
        assert len(explanations) == bag.n_instances
        assert {e.instance_id for e in explanations} \
            == {i.instance_id for i in bag.instances}

    def test_sorted_by_score(self, engine_with_feedback):
        _, _, engine = engine_with_feedback
        explanations = engine.explain(engine.top_k(1)[0])
        scores = [e.score for e in explanations]
        assert scores == sorted(scores, reverse=True)
        assert [e.rank for e in explanations] \
            == list(range(1, len(scores) + 1))

    def test_scores_match_instance_relevance(self, engine_with_feedback):
        _, _, engine = engine_with_feedback
        relevance = engine.instance_relevance()
        for e in engine.explain(engine.dataset.bags[0].bag_id):
            assert e.score == pytest.approx(relevance[e.instance_id])

    def test_works_before_feedback_too(self):
        ds, _ = make_toy(seed=1)
        engine = MILRetrievalEngine(ds)
        explanations = engine.explain(ds.bags[0].bag_id)
        assert explanations  # heuristic-based, still ordered
        assert explanations[0].feature_names \
            == ("inv_mdist", "vdiff", "theta")

    def test_unknown_bag_rejected(self, engine_with_feedback):
        _, _, engine = engine_with_feedback
        with pytest.raises(ConfigurationError):
            engine.explain(99999)

    def test_peak_feature(self):
        explanation = InstanceExplanation(
            rank=1, instance_id=0, track_id=0, score=0.5,
            feature_names=("a", "b"),
            matrix=np.array([[0.1, -2.0], [0.3, 0.4]]),
        )
        name, value = explanation.peak_feature()
        assert name == "b"
        assert value == pytest.approx(-2.0)

    def test_top_instance_is_eventful_in_event_bag(self):
        """In a relevant bag, the #1 explanation carries the spike."""
        ds, gt = make_toy(instances_per_bag=3, seed=6)
        engine = MILRetrievalEngine(ds)
        event_bag = next(b for b in ds.bags
                         if gt.label_window(b.frame_lo, b.frame_hi))
        top = engine.explain(event_bag.bag_id)[0]
        assert np.abs(top.matrix).max() > 0.5
