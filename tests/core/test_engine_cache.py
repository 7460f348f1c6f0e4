"""Cached engine scores vs the reference learner.

The per-shard GramCache is a pure reuse layer: for every kernel family
and both learners, the engine's scores must match the reference
``OneClassSVM`` / ``SVDD`` ``decision_function`` on the full
standardized matrix to floating point tolerance, across multiple
feedback rounds — including nu, rankings and explanations."""

import numpy as np
import pytest

from repro.core import MILRetrievalEngine
from repro.core.heuristics import heuristic_scores
from repro.svm import SVDD, OneClassSVM, StandardScaler
from tests.core.conftest import make_toy


def _relevant_ids(dataset, gt):
    return {b.bag_id for b in dataset.bags
            if gt.label_window(b.frame_lo, b.frame_hi)}


def _rounds(dataset, relevant, n_rounds=3, per_round=14):
    bag_ids = [b.bag_id for b in dataset.bags]
    return [
        {b: (b in relevant)
         for b in bag_ids[r * per_round:(r + 1) * per_round]}
        for r in range(n_rounds)
    ]


def _reference_scores(engine, dataset, *, kernel="rbf", gamma="auto",
                      learner="ocsvm"):
    """Instance scores of a learner fitted from scratch by the paper's
    rule (policy "all", Eq. 9 nu), evaluated on the whole standardized
    matrix.  Also checks the engine's nu."""
    _, heuristic = heuristic_scores(dataset)
    train = [
        inst.instance_id
        for b in engine.relevant_bag_ids
        for inst in sorted(dataset.bag_by_id(b).instances,
                           key=lambda i: heuristic[i.instance_id],
                           reverse=True)
    ]
    h = len(engine.relevant_bag_ids)
    nu = float(np.clip(1 - (h / len(train) + 0.05), 0.05, 0.95))
    assert engine.training_size_ == len(train)
    assert engine.last_nu_ == pytest.approx(nu)
    matrix = dataset.instance_matrix()
    x = StandardScaler().fit(matrix).transform(matrix)
    cls = SVDD if learner == "svdd" else OneClassSVM
    model = cls(nu=nu, kernel=kernel, gamma=gamma).fit(x[train])
    return model.decision_function(x)


@pytest.mark.parametrize("kernel", ["rbf", "linear", "poly"])
@pytest.mark.parametrize("learner", ["ocsvm", "svdd"])
def test_cached_matches_uncached(kernel, learner):
    dataset, gt = make_toy(instances_per_bag=3, seed=2)
    relevant = _relevant_ids(dataset, gt)
    engine = MILRetrievalEngine(dataset, kernel=kernel, learner=learner,
                                training_policy="all")
    for batch in _rounds(dataset, relevant):
        engine.feed(batch)
        reference = _reference_scores(engine, dataset, kernel=kernel,
                                      learner=learner)
        scores = engine.instance_relevance()
        ids = [i.instance_id for i in dataset.all_instances()]
        assert sorted(scores) == sorted(ids)
        np.testing.assert_allclose([scores[i] for i in ids], reference,
                                   atol=1e-8)
        bag_reference = [max((reference[i.instance_id]
                              for i in b.instances), default=-np.inf)
                         for b in dataset.bags]
        np.testing.assert_allclose(engine.bag_scores(), bag_reference,
                                   atol=1e-8)
        for e in engine.explain(engine.top_k(1)[0]):
            assert e.score == pytest.approx(reference[e.instance_id],
                                            abs=1e-8)


def test_cache_reuses_columns_across_rounds():
    dataset, gt = make_toy(instances_per_bag=2, seed=3)
    relevant = _relevant_ids(dataset, gt)
    engine = MILRetrievalEngine(dataset, training_policy="all")
    batches = _rounds(dataset, relevant, n_rounds=2, per_round=16)
    engine.feed(batches[0])
    engine.rank()
    cache = engine.shard.gram_cache
    misses_after_cold = cache.misses
    assert cache.hits == 0
    support_before = set(engine.rule.support_ids)
    engine.feed(batches[1])
    engine.rank()
    # Warm round: only support vectors not seen before cost columns.
    support_after = engine.rule.support_ids
    reused = len(support_before & set(support_after))
    assert cache.hits == reused > 0
    assert cache.misses == misses_after_cold + len(support_after) - reused


def test_gamma_scale_invalidates_per_round():
    """Data-dependent gamma moves as the training set grows; the cache
    must not reuse columns across differing gamma values."""
    dataset, gt = make_toy(instances_per_bag=2, seed=4)
    relevant = _relevant_ids(dataset, gt)
    engine = MILRetrievalEngine(dataset, gamma="scale",
                                training_policy="all")
    for batch in _rounds(dataset, relevant, n_rounds=2, per_round=16):
        engine.feed(batch)
        scores = engine.instance_relevance()
        reference = _reference_scores(engine, dataset, gamma="scale")
        assert max(abs(scores[i] - reference[i]) for i in scores) < 1e-8
