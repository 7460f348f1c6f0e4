"""Tests for workload statistics."""

import pytest

from repro.sim import intersection, tunnel
from repro.sim.stats import traffic_statistics


class TestTrafficStatistics:
    def test_tunnel_is_sparse(self, small_tunnel):
        stats = traffic_statistics(small_tunnel)
        assert stats.n_frames == small_tunnel.n_frames
        assert stats.mean_concurrency < 6.0
        assert stats.n_vehicles > 0

    def test_intersection_denser_than_tunnel(self, small_tunnel,
                                             small_intersection):
        tunnel_stats = traffic_statistics(small_tunnel)
        ix_stats = traffic_statistics(small_intersection)
        assert ix_stats.mean_concurrency > tunnel_stats.mean_concurrency

    def test_speeds_match_scenario_nominal(self, small_tunnel):
        stats = traffic_statistics(small_tunnel)
        # Tunnel nominal is ~3 px/frame with jitter and braking episodes.
        assert 1.5 < stats.mean_speed < 3.5
        assert stats.speed_std > 0.0

    def test_stop_fraction_reflects_incidents(self):
        calm = tunnel(n_frames=600, seed=12, spawn_interval=(60.0, 90.0),
                      n_wall_crashes=1, n_sudden_stops=1,
                      benign_fraction=0.0)
        eventful = tunnel(n_frames=600, seed=12,
                          spawn_interval=(60.0, 90.0),
                          n_wall_crashes=3, n_sudden_stops=3,
                          benign_fraction=0.9)
        assert (traffic_statistics(eventful).stop_fraction
                >= traffic_statistics(calm).stop_fraction)

    def test_incident_rate(self, small_intersection):
        stats = traffic_statistics(small_intersection)
        expected = 1000.0 * len(small_intersection.incidents) \
            / small_intersection.n_frames
        assert stats.incidents_per_1k_frames == pytest.approx(expected)
        assert "collision" in stats.incident_kinds

    def test_summary_readable(self, small_tunnel):
        text = traffic_statistics(small_tunnel).summary()
        assert "vehicles" in text
        assert "incidents per 1k frames" in text

    def test_as_dict_roundtrip(self, small_tunnel):
        stats = traffic_statistics(small_tunnel)
        data = stats.as_dict()
        assert data["n_frames"] == small_tunnel.n_frames
        assert set(data) >= {"mean_concurrency", "mean_speed",
                             "stop_fraction"}

    def test_paper_scale_shapes(self):
        """Default workloads keep the paper's sparse/dense contrast."""
        tunnel_stats = traffic_statistics(tunnel(seed=0))
        ix_stats = traffic_statistics(intersection(seed=1))
        assert tunnel_stats.mean_concurrency < ix_stats.mean_concurrency
        assert tunnel_stats.n_frames > 4 * ix_stats.n_frames
