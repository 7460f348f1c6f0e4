"""Tests for experiment plumbing: artifacts, protocol, reporting."""

import pytest

from repro.core import MILRetrievalEngine, WeightedRFEngine
from repro.errors import ConfigurationError
from repro.eval import build_artifacts, run_protocol
from repro.eval.reporting import comparison_table, format_series_table


@pytest.fixture(scope="module")
def artifacts(small_tunnel):
    return build_artifacts(small_tunnel, mode="oracle")


class TestBuildArtifacts:
    def test_oracle_mode(self, artifacts, small_tunnel):
        assert artifacts.result is small_tunnel
        assert artifacts.tracks
        assert len(artifacts.dataset) > 0
        assert artifacts.relevant_bag_ids

    def test_vision_mode(self, small_tunnel):
        art = build_artifacts(small_tunnel, mode="vision")
        assert art.dataset.n_instances > 0

    def test_bad_mode(self, small_tunnel):
        with pytest.raises(ConfigurationError):
            build_artifacts(small_tunnel, mode="psychic")

    def test_window_size_parameter(self, small_tunnel):
        w5 = build_artifacts(small_tunnel, mode="oracle", window_size=5)
        assert w5.dataset.window_size == 5
        inst = w5.dataset.all_instances()[0]
        assert inst.matrix.shape[0] == 5

    def test_event_parameter(self, small_tunnel):
        art = build_artifacts(small_tunnel, mode="oracle", event="speeding")
        assert art.dataset.event_name == "speeding"
        assert art.dataset.feature_names == ("velocity", "vdiff")


class TestRunProtocol:
    def test_protocol_result_fields(self, artifacts):
        res = run_protocol(artifacts, MILRetrievalEngine,
                           method="MIL", rounds=3, top_k=10)
        assert res.method == "MIL"
        assert len(res.accuracies) == 3
        assert 0 < res.n_bags
        assert 0 <= res.n_relevant_total <= res.n_bags
        assert res.initial == res.accuracies[0]
        assert res.final == res.accuracies[-1]
        assert res.gain == pytest.approx(res.final - res.initial)
        assert 0 < res.ceiling <= 1.0

    def test_engine_kwargs_forwarded(self, artifacts):
        res = run_protocol(artifacts, MILRetrievalEngine, rounds=2,
                           top_k=10, training_policy="top2", z=0.1)
        assert "last_nu" in res.extras

    def test_rounds_validated(self, artifacts):
        with pytest.raises(ConfigurationError):
            run_protocol(artifacts, MILRetrievalEngine, rounds=0)

    def test_weighted_rf_runs(self, artifacts):
        res = run_protocol(artifacts, WeightedRFEngine, rounds=3, top_k=10)
        assert len(res.accuracies) == 3

    def test_label_noise_changes_labels(self, artifacts):
        clean = run_protocol(artifacts, MILRetrievalEngine, rounds=3,
                             top_k=10)
        noisy = run_protocol(artifacts, MILRetrievalEngine, rounds=3,
                             top_k=10, flip_prob=0.5, user_seed=3)
        assert clean.accuracies != noisy.accuracies


class TestReporting:
    def test_series_table_contains_all_methods(self):
        table = format_series_table(
            {"MIL": [0.4, 0.5], "WRF": [0.4, 0.45]})
        assert "MIL" in table and "WRF" in table
        assert "Initial" in table and "First" in table
        assert "40%" in table

    def test_series_table_raw_numbers(self):
        table = format_series_table({"m": [0.333]}, as_percent=False)
        assert "0.333" in table

    def test_empty_series(self):
        assert format_series_table({}) == "(no data)"

    def test_comparison_table_full(self, artifacts):
        from repro.eval.experiments import ExperimentResult

        res = ExperimentResult(name="exp", series={},
                               expectation="goes up", metadata={"seed": 0})
        res.add("MIL", run_protocol(artifacts, MILRetrievalEngine,
                                    method="MIL", rounds=2, top_k=10))
        text = comparison_table(res)
        assert "exp" in text
        assert "goes up" in text
        assert "ceiling" in text
