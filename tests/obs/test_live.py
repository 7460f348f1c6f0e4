"""Live scrape endpoint: /metrics, /healthz, request accounting."""

import json
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import LiveMetricsServer
from repro.obs.live import AsyncHTTPServer


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


@pytest.fixture()
def server(fresh_telemetry):
    with LiveMetricsServer(port=0) as srv:
        yield srv


class TestLiveMetricsServer:
    def test_metrics_is_prometheus_text(self, server, fresh_telemetry):
        fresh_telemetry.counter("pipeline.stage.cache_hit").inc(
            stage="segment")
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert ('pipeline_stage_cache_hit_total{stage="segment"} 1'
                in body)

    def test_healthz_ok_when_slos_met(self, server, fresh_telemetry):
        fresh_telemetry.gauge("query.coverage_fraction").set(1.0)
        status, body = _get(server.url + "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert {s["name"] for s in doc["slos"]} >= {"round-latency-p99",
                                                    "coverage-fraction"}

    def test_healthz_degraded_on_breach(self, server, fresh_telemetry):
        fresh_telemetry.gauge("query.coverage_fraction").set(0.5)
        status, body = _get(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_unknown_path_is_404(self, server):
        status, _ = _get(server.url + "/nope")
        assert status == 404

    def test_requests_counted_with_bounded_paths(self, server,
                                                 fresh_telemetry):
        _get(server.url + "/metrics")
        _get(server.url + "/healthz")
        _get(server.url + "/a")
        _get(server.url + "/b")  # both land in the 'other' bucket
        c = fresh_telemetry.counter("obs.live.requests")
        assert c.value(path="/metrics") == 1
        assert c.value(path="/healthz") == 1
        assert c.value(path="other") == 2

    def test_serves_current_registry_after_swap(self, server):
        from repro.obs import Telemetry, set_telemetry

        other = Telemetry()
        other.counter("pipeline.stage.cache_hit").inc(stage="late")
        previous = set_telemetry(other)
        try:
            _, body = _get(server.url + "/metrics")
        finally:
            set_telemetry(previous)
        assert 'stage="late"' in body

    def test_stop_is_idempotent(self, fresh_telemetry):
        srv = LiveMetricsServer(port=0).start()
        port = srv.port
        assert port != 0
        srv.stop()
        srv.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=1)


class TestClientDisconnect:
    """A client hanging up mid-request must be counted, not raised."""

    def test_reset_while_handling_is_counted(self, fresh_telemetry):
        class _SlowApp:
            def handle(self, method, target, body):
                time.sleep(0.2)
                return 200, "text/plain", b"x" * len(body)

        counter = fresh_telemetry.counter("obs.live.client_disconnects")
        with AsyncHTTPServer(_SlowApp(), port=0) as server:
            status, body = _get(server.url + "/")
            assert (status, body) == (200, "")
            assert counter.total() == 0
            raw = socket.create_connection(("127.0.0.1", server.port),
                                           timeout=5)
            raw.sendall(b"POST / HTTP/1.1\r\nContent-Length: 1024\r\n\r\n"
                        + b"a" * 1024)
            # Linger 0: close() sends a TCP reset while the app sleeps,
            # so the server's response write meets a dead connection.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           struct.pack("ii", 1, 0))
            raw.close()
            deadline = time.monotonic() + 5.0
            while counter.total() == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
        assert counter.total() == 1
