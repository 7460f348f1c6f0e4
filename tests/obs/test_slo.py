"""Quantile interpolation and SLO evaluation/burn-rate math."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Histogram,
    SLObjective,
    bucket_quantile,
    evaluate_slos,
    evaluate_slos_from_summary,
    quantile_from_snapshot,
    render_slos,
    run_summary,
)


class TestBucketQuantile:
    def test_interpolates_within_bucket(self):
        # 10 observations uniformly counted into (0, 10]: p50 -> 5.0.
        assert bucket_quantile((10.0,), (10,), 10, 0.5) == pytest.approx(5.0)

    def test_multi_bucket(self):
        bounds = (1.0, 10.0, 100.0)
        cumulative = (5, 9, 10)
        # p90 target = 9 observations, exactly the <=10 cumulative.
        assert bucket_quantile(bounds, cumulative, 10, 0.9) == \
            pytest.approx(10.0)
        # p95 lands in the (10, 100] bucket, halfway through its 1 count.
        assert bucket_quantile(bounds, cumulative, 10, 0.95) == \
            pytest.approx(55.0)

    def test_overflow_clamps_to_last_finite_bound(self):
        # All observations past the last bound: report the bound, not a
        # fabricated extrapolation.
        assert bucket_quantile((1.0, 2.0), (0, 0), 5, 0.99) == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(bucket_quantile((1.0,), (0,), 0, 0.5))

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ConfigurationError, match="quantile"):
            bucket_quantile((1.0,), (1,), 1, 1.5)


class TestHistogramQuantile:
    def test_live_and_snapshot_agree(self):
        h = Histogram("t")
        for v in (0.2, 1.5, 3.0, 4.0, 40.0, 80.0, 900.0):
            h.observe(v)
        live = h.quantile(0.5)
        snap = h.snapshot()["series"][0]
        assert quantile_from_snapshot(snap, 0.5) == pytest.approx(live)
        assert 1.0 <= live <= 5.0

    def test_absent_series_is_nan_and_not_materialised(self):
        h = Histogram("t")
        assert math.isnan(h.quantile(0.9, op="results"))
        assert h.series() == []


class TestSLObjective:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            SLObjective(name="x", metric="m", kind="nope", threshold=1.0)

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ConfigurationError, match="quantile"):
            SLObjective(name="x", metric="m", kind="quantile_below",
                        threshold=1.0, quantile=1.0)


class TestEvaluateSlos:
    def test_no_samples_is_met_with_zero_samples(self, fresh_telemetry):
        statuses = evaluate_slos(fresh_telemetry)
        assert all(st.met for st in statuses)
        assert all(st.samples == 0 for st in statuses)
        # Nothing recorded for unsampled objectives.
        assert fresh_telemetry.gauge("slo.attainment").series() == []

    def test_quantile_objective_met(self, fresh_telemetry):
        t = fresh_telemetry
        for _ in range(100):
            t.histogram("query.round.latency_ms").observe(5.0, op="results")
        st = next(s for s in evaluate_slos(t)
                  if s.name == "round-latency-p99")
        assert st.met
        assert st.samples == 100
        assert st.burn_rate < 1.0

    def test_quantile_objective_breach_burns_budget(self, fresh_telemetry):
        t = fresh_telemetry
        h = t.histogram("query.round.latency_ms")
        for _ in range(90):
            h.observe(5.0, op="results")
        for _ in range(10):
            h.observe(2000.0, op="results")  # 10% over the 500 ms target
        st = next(s for s in evaluate_slos(t)
                  if s.name == "round-latency-p99")
        assert not st.met
        # 10% bad over a 1% budget: burning 10x.
        assert st.burn_rate == pytest.approx(10.0, rel=0.05)
        assert t.counter("slo.breaches").value(slo=st.name) == 1
        assert t.gauge("slo.burn_rate").value(slo=st.name) == \
            pytest.approx(st.burn_rate)

    def test_gauge_objectives(self, fresh_telemetry):
        t = fresh_telemetry
        t.gauge("query.coverage_fraction").set(0.80)
        t.gauge("ingest.lag_frames").set(1000.0)
        by_name = {s.name: s for s in evaluate_slos(t)}
        cov = by_name["coverage-fraction"]
        assert not cov.met
        assert cov.burn_rate == pytest.approx(0.95 / 0.80)
        lag = by_name["ingest-freshness"]
        assert not lag.met
        assert lag.burn_rate == pytest.approx(2.0)

    def test_render_marks_misses(self, fresh_telemetry):
        t = fresh_telemetry
        t.gauge("query.coverage_fraction").set(0.99)
        text = render_slos(evaluate_slos(t))
        assert "ok   coverage-fraction" in text
        assert "no samples yet" in text  # the unsampled objectives


class TestEvaluateFromSummary:
    def test_summary_agrees_with_live(self, fresh_telemetry):
        t = fresh_telemetry
        h = t.histogram("query.round.latency_ms")
        for _ in range(95):
            h.observe(5.0, op="results")
        for _ in range(5):
            h.observe(2000.0, op="feed")
        t.gauge("query.coverage_fraction").set(0.97)
        live = {s.name: s for s in evaluate_slos(t, record=False)}
        summary = run_summary(t)
        persisted = {s.name: s for s in evaluate_slos_from_summary(summary)}
        for name, st in live.items():
            got = persisted[name]
            assert got.met == st.met
            assert got.samples == st.samples
            assert got.burn_rate == st.burn_rate
            assert got.measured == st.measured or (
                math.isnan(got.measured) and math.isnan(st.measured))

    def test_empty_summary(self):
        statuses = evaluate_slos_from_summary({"metrics": []})
        assert all(st.met and st.samples == 0 for st in statuses)
