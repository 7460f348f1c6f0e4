"""Tests for multi-clip (whole-database) query sessions."""

import numpy as np
import pytest

from repro.core import (
    MILRetrievalEngine,
    MultiClipOracle,
    WeightedRFEngine,
    merge_datasets,
)
from repro.db import MultiClipQuerySession, VideoDatabase
from repro.db.schema import ClipRecord
from repro.errors import ConfigurationError
from repro.eval import build_artifacts
from repro.sim import GroundTruth


@pytest.fixture()
def two_clip_db(small_tunnel, small_intersection):
    db = VideoDatabase()
    truths = {}
    for sim in (small_tunnel, small_intersection):
        artifacts = build_artifacts(sim, mode="oracle")
        db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset)
        truths[sim.name] = GroundTruth.from_result(sim)
    return db, truths


class TestMultiClipQuerySession:
    def test_merged_corpus_size(self, two_clip_db, small_tunnel,
                                small_intersection):
        db, _ = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident")
        per_clip = (len(db.dataset(small_tunnel.name, "accident"))
                    + len(db.dataset(small_intersection.name, "accident")))
        assert len(session.dataset) == per_clip

    def test_results_span_both_clips(self, two_clip_db, small_tunnel,
                                     small_intersection):
        db, _ = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident",
            top_k=len(db.dataset(small_tunnel.name, "accident"))
            + len(db.dataset(small_intersection.name, "accident")))
        clips = {session.dataset.bag_by_id(b).clip_id
                 for b in session.results()}
        assert clips == {small_tunnel.name, small_intersection.name}

    def test_feedback_with_multiclip_oracle(self, two_clip_db,
                                            small_tunnel,
                                            small_intersection):
        db, truths = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident",
            user_id="dana", top_k=10)
        oracle = MultiClipOracle(truths)
        bags = [session.dataset.bag_by_id(b) for b in session.results()]
        session.feed(oracle.label_bags(bags))
        assert session.round_index == 1
        stored = db.labels(session.corpus_id, "accident", "dana")
        assert len(stored) == 10

    def test_resume_restores_merged_session(self, two_clip_db,
                                            small_tunnel,
                                            small_intersection):
        db, truths = two_clip_db
        clip_ids = [small_tunnel.name, small_intersection.name]
        first = MultiClipQuerySession(db, clip_ids, "accident",
                                      user_id="ed", top_k=8)
        oracle = MultiClipOracle(truths)
        bags = [first.dataset.bag_by_id(b) for b in first.results()]
        first.feed(oracle.label_bags(bags))
        after = first.results()

        resumed = MultiClipQuerySession(db, clip_ids, "accident",
                                        user_id="ed", top_k=8)
        assert resumed.round_index == 1
        assert resumed.results() == after

    def test_corpus_isolated_from_single_clip_labels(self, two_clip_db,
                                                     small_tunnel,
                                                     small_intersection):
        from repro.db import SemanticQuerySession

        db, _ = two_clip_db
        single = SemanticQuerySession(db, small_tunnel.name, "accident",
                                      user_id="f", top_k=5)
        single.feed({b: True for b in single.results()})
        merged = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident",
            user_id="f", top_k=5)
        assert merged.round_index == 0
        assert not merged.engine.labels

    def test_empty_clip_list_rejected(self, two_clip_db):
        db, _ = two_clip_db
        with pytest.raises(ConfigurationError):
            MultiClipQuerySession(db, [], "accident")


class TestShardedSession:
    def test_sharded_matches_merged_over_oracle_protocol(
            self, two_clip_db, small_tunnel, small_intersection):
        """The sharded session must reproduce the engine over the merged
        dataset on every round of an oracle feedback protocol."""
        db, truths = two_clip_db
        clip_ids = [small_tunnel.name, small_intersection.name]
        sharded = MultiClipQuerySession(db, clip_ids, "accident",
                                        user_id="s", top_k=10)
        merged = MILRetrievalEngine(merge_datasets(
            [db.dataset(c, "accident") for c in clip_ids],
            merged_id=sharded.corpus_id))
        oracle = MultiClipOracle(truths)
        for _ in range(4):
            results = sharded.results()
            assert merged.top_k(10) == results
            labels = oracle.label_bags(
                [sharded.dataset.bag_by_id(b) for b in results])
            sharded.feed(labels)
            merged.feed(labels)
        assert merged.top_k(10) == sharded.results()

    def test_shards_load_lazily_behind_session(self, two_clip_db,
                                               small_tunnel,
                                               small_intersection):
        db, _ = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident")
        assert session.engine.corpus.loaded_clip_ids == []
        session.results()
        assert set(session.engine.corpus.loaded_clip_ids) == {
            small_tunnel.name, small_intersection.name}

    def test_pruned_session_runs_feedback(self, two_clip_db, small_tunnel,
                                          small_intersection):
        db, truths = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident",
            candidates_per_shard=2, top_k=5)
        assert session.engine.candidates_per_shard == 2
        oracle = MultiClipOracle(truths)
        for _ in range(2):
            bags = [session.dataset.bag_by_id(b)
                    for b in session.results()]
            session.feed(oracle.label_bags(bags))
        assert sorted(session.engine.rank()) == \
            list(range(len(session.dataset)))

    def test_ivf_session_runs_feedback(self, two_clip_db, small_tunnel,
                                       small_intersection):
        db, truths = two_clip_db
        session = MultiClipQuerySession(
            db, [small_tunnel.name, small_intersection.name], "accident",
            candidates_per_shard=4, nominator="ivf", index_cells=8,
            nprobe=2, top_k=5)
        nominator = session.engine.nominator
        assert nominator.name == "ivf"
        assert nominator.n_cells == 8 and nominator.nprobe == 2
        oracle = MultiClipOracle(truths)
        for _ in range(2):
            bags = [session.dataset.bag_by_id(b)
                    for b in session.results()]
            session.feed(oracle.label_bags(bags))
        assert sorted(session.engine.rank()) == \
            list(range(len(session.dataset)))

    def test_ivf_knobs_validated(self, two_clip_db, small_tunnel,
                                 small_intersection):
        db, _ = two_clip_db
        clip_ids = [small_tunnel.name, small_intersection.name]
        with pytest.raises(ConfigurationError, match="nprobe/index_cells"):
            MultiClipQuerySession(db, clip_ids, "accident", nprobe=4)
        with pytest.raises(ConfigurationError, match="nominator must be"):
            MultiClipQuerySession(db, clip_ids, "accident",
                                  nominator="faiss")

    def test_weighted_rf_matches_merged_weighted_rf(
            self, two_clip_db, small_tunnel, small_intersection):
        """An engine name only selects the rule: a multi-clip Weighted-RF
        session ranks and scores like Weighted-RF over the merged
        dataset, round for round."""
        db, truths = two_clip_db
        clip_ids = [small_tunnel.name, small_intersection.name]
        sharded = MultiClipQuerySession(db, clip_ids, "accident",
                                        user_id="w", top_k=10,
                                        engine="weighted_rf")
        merged = WeightedRFEngine(merge_datasets(
            [db.dataset(c, "accident") for c in clip_ids],
            merged_id=sharded.corpus_id))
        oracle = MultiClipOracle(truths)
        for _ in range(4):
            results = sharded.results()
            assert merged.top_k(10) == results
            assert np.array_equal(merged.bag_scores(),
                                  sharded.engine.bag_scores())
            labels = oracle.label_bags(
                [sharded.dataset.bag_by_id(b) for b in results])
            sharded.feed(labels)
            merged.feed(labels)
        assert sharded.engine.is_trained
        assert np.array_equal(merged.fitted.weights,
                              sharded.engine.fitted.weights)

    def test_incompatible_datasets_rejected(self, two_clip_db,
                                            small_tunnel,
                                            small_intersection):
        from repro.core.bags import MILDataset

        db, _ = two_clip_db
        other = db.dataset(small_intersection.name, "accident")
        skewed = MILDataset(
            clip_id="skewed", event_name="accident",
            feature_names=other.feature_names,
            window_size=other.window_size + 1,
            sampling_rate=other.sampling_rate,
            bags=[])
        db.add_clip(ClipRecord(clip_id="skewed", location="x",
                               fps=20, n_frames=100))
        db.add_dataset(skewed)
        with pytest.raises(ConfigurationError, match="not compatible"):
            MultiClipQuerySession(db, [small_tunnel.name, "skewed"],
                                  "accident")
