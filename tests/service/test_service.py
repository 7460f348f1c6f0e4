"""Multi-tenant retrieval service: routing, session lifecycle,
cross-worker resume, corpus sharing, and the HTTP front end."""

import asyncio
import gc
import http.client
import json
import socket
import threading
import time
import weakref

import pytest

from repro.db import VideoDatabase
from repro.eval import build_artifacts
from repro.obs import LiveMetricsServer, Telemetry, set_telemetry
from repro.service import RetrievalHTTPServer, RetrievalService


@pytest.fixture(scope="module")
def service_db(tmp_path_factory, small_tunnel, small_intersection):
    """File-backed catalog shared by every service in this module."""
    path = str(tmp_path_factory.mktemp("svc") / "catalog.sqlite")
    with VideoDatabase(path) as db:
        for sim in (small_tunnel, small_intersection):
            artifacts = build_artifacts(sim, mode="oracle")
            db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset)
    return path, [small_tunnel.name, small_intersection.name]


@pytest.fixture()
def service(service_db):
    path, _clips = service_db
    svc = RetrievalService(path)
    yield svc
    svc.close()


def _call(svc, method, target, doc=None):
    body = json.dumps(doc).encode() if doc is not None else None
    status, ctype, payload = svc.handle(method, target, body)
    parsed = json.loads(payload) if ctype == "application/json" else payload
    return status, parsed


def _create(svc, clips, *, user="ana", **extra):
    return _call(svc, "POST", "/sessions",
                 {"user": user, "clips": clips, "event": "accident",
                  **extra})


def _label_round(svc, sid, *, flip=False):
    """Feed a deterministic labeling of the current top ranking."""
    status, doc = _call(svc, "GET", f"/sessions/{sid}/results")
    assert status == 200
    labels = {str(r["bag_id"]): (i % 2 == 0) != flip
              for i, r in enumerate(doc["results"])}
    return _call(svc, "POST", f"/sessions/{sid}/feed", {"labels": labels})


class TestRouting:
    def test_index_lists_endpoints(self, service):
        status, doc = _call(service, "GET", "/")
        assert status == 200
        assert "POST /sessions" in doc["endpoints"]

    def test_unknown_route_404(self, service):
        status, doc = _call(service, "GET", "/nope")
        assert status == 404

    def test_metrics_and_healthz(self, service):
        status, body = service.handle("GET", "/metrics")[0], None
        assert status == 200
        status, doc = _call(service, "GET", "/healthz")
        assert status in (200, 503)
        assert doc["status"] in ("ok", "degraded")

    def test_healthz_equals_the_scrape_endpoints(self, service):
        """Both servers answer /healthz through ``render_healthz`` over
        ``DEFAULT_SLOS``: byte-identical bodies and equal statuses, with
        every SLO met and with the round-latency SLO breached."""
        telemetry = Telemetry()
        previous = set_telemetry(telemetry)
        try:
            scrape = LiveMetricsServer()
            latency = telemetry.histogram("query.round.latency_ms")
            for _ in range(100):
                latency.observe(5.0, op="results")
            for expected in (200, 503):
                svc_status, _, svc_body = service.handle("GET", "/healthz")
                live_status, _, live_body = scrape.handle(
                    "GET", "/healthz", b"")
                assert svc_status == live_status == expected
                assert svc_body == live_body
                # Push p99 past the 500 ms objective for the second pass.
                for _ in range(10):
                    latency.observe(2000.0, op="results")
        finally:
            set_telemetry(previous)

    def test_malformed_json_400(self, service):
        status, _, payload = service.handle("POST", "/sessions",
                                            b"{not json")
        assert status == 400
        assert json.loads(payload)["error"] == "bad_request"


class TestSessionLifecycle:
    def test_create_feed_results_explain(self, service, service_db):
        _, clips = service_db
        status, doc = _create(service, clips, user="casey")
        assert status == 201
        assert doc["round"] == 0 and not doc["resumed"]
        sid = doc["session"]
        assert sid == f"casey:merged:{'+'.join(clips)}:accident"

        status, doc = _label_round(service, sid)
        assert status == 200 and doc["round"] == 1

        status, doc = _call(service, "GET", f"/sessions/{sid}/results")
        assert status == 200
        assert doc["round"] == 1
        assert len(doc["results"]) == 20
        first = doc["results"][0]
        assert {"bag_id", "clip_id", "frame_lo", "frame_hi"} <= set(first)
        assert first["clip_id"] in clips

        status, doc = _call(service, "GET",
                            f"/sessions/{sid}/results?top_k=5")
        assert status == 200 and len(doc["results"]) == 5

        status, doc = _call(service, "GET", f"/sessions/{sid}/explain")
        assert status == 200
        ops = [r["op"] for r in doc["rounds"]]
        assert "feed" in ops
        assert all("spans" not in r and "profile" not in r
                   for r in doc["rounds"])

    def test_weighted_rf_session(self, service, service_db):
        """An engine name only selects the rule, so a multi-clip
        Weighted-RF session is created, fed and resumed like any other."""
        _, clips = service_db
        status, doc = _create(service, clips, user="wren",
                              engine="weighted_rf")
        assert status == 201 and doc["engine"] == "weighted_rf"
        sid = doc["session"]
        status, doc = _label_round(service, sid)
        assert status == 200 and doc["round"] == 1
        assert service._sessions[sid].session.engine.fitted.weights \
            is not None
        ranked = _call(service, "GET", f"/sessions/{sid}/results")[1]
        assert _call(service, "DELETE", f"/sessions/{sid}")[0] == 200
        status, resumed = _call(service, "GET", f"/sessions/{sid}/results")
        assert status == 200 and resumed == ranked

    def test_recreate_resumes_in_place(self, service, service_db):
        _, clips = service_db
        status, doc = _create(service, clips, user="drew")
        sid = doc["session"]
        _label_round(service, sid)
        status, doc = _create(service, clips, user="drew")
        assert status == 200  # existing session, not a new one
        assert doc["resumed"] and doc["round"] == 1

    @pytest.mark.parametrize("change", [
        {"top_k": 15},
        {"params": {"candidates_per_shard": 3}},
        {"engine": "weighted_rf"},
    ], ids=["top_k", "params", "engine"])
    @pytest.mark.parametrize("where", ["resident", "evicted", "other_worker"])
    def test_recreate_with_other_settings_conflicts(self, service_db,
                                                    change, where):
        """A re-create that changes the engine, ``top_k`` or ``params``
        gets 409 with the stored settings and changes nothing: not the
        record, not the resident session, not what another worker
        builds from the record."""
        path, clips = service_db
        user = f"reset-{where}-{next(iter(change))}"
        first, other = RetrievalService(path), RetrievalService(path)
        try:
            sid = _create(first, clips, user=user, top_k=5)[1]["session"]
            _label_round(first, sid)
            if where == "evicted":
                assert _call(first, "DELETE", f"/sessions/{sid}")[1]["closed"]
            worker = other if where == "other_worker" else first

            status, doc = _create(worker, clips, user=user,
                                  **{"top_k": 5, **change})
            assert status == 409
            assert doc["error"] == "settings_conflict"
            stored = {"engine": "mil_ocsvm", "top_k": 5, "params": {}}
            assert doc["stored"] == stored
            info = _call(worker, "GET", f"/sessions/{sid}")[1]
            assert {k: info[k] for k in stored} == stored
            assert info["resident"] == (where == "resident")

            # Every worker still serves the stored settings.
            for svc in (first, other):
                doc = _call(svc, "GET", f"/sessions/{sid}/results")[1]
                assert doc["round"] == 1 and len(doc["results"]) == 5
                engine = svc._sessions[sid].session.engine
                assert type(engine.rule).__name__ == "OneClassRule"
                assert engine.candidates_per_shard is None

            status, doc = _create(worker, clips, user=user, top_k=5)
            assert status == 200 and doc["resumed"] and doc["top_k"] == 5
        finally:
            first.close()
            other.close()

    def test_info_list_and_close(self, service, service_db):
        _, clips = service_db
        sid = _create(service, clips, user="evan")[1]["session"]
        status, doc = _call(service, "GET", f"/sessions/{sid}")
        assert status == 200 and doc["resident"] and doc["round"] == 0

        status, doc = _call(service, "GET", "/sessions")
        mine = [s for s in doc["sessions"] if s["session"] == sid]
        assert mine and mine[0]["resident"]

        status, doc = _call(service, "DELETE", f"/sessions/{sid}")
        assert status == 200 and doc["closed"]
        status, doc = _call(service, "GET", f"/sessions/{sid}")
        assert status == 200 and not doc["resident"]  # record survives

        # next touch resumes transparently from the catalog
        status, doc = _call(service, "GET", f"/sessions/{sid}/results")
        assert status == 200 and len(doc["results"]) == 20

    def test_unknown_session_404(self, service):
        status, doc = _call(service, "GET", "/sessions/zz:none:x/results")
        assert status == 404 and doc["error"] == "not_found"

    def test_validation_errors(self, service, service_db):
        _, clips = service_db
        assert _create(service, clips, user="a:b")[0] == 400
        assert _create(service, clips, user="")[0] == 400
        assert _create(service, [])[0] == 400
        assert _create(service, clips, engine="nope")[0] == 400
        assert _create(service, clips, params={"evil": 1})[0] == 400
        assert _create(service, clips, params="no")[0] == 400
        sid = _create(service, clips, user="fay")[1]["session"]
        assert _call(service, "POST", f"/sessions/{sid}/feed",
                     {"labels": {}})[0] == 400
        assert _call(service, "GET",
                     f"/sessions/{sid}/results?top_k=0")[0] == 400


#: Malformed inputs, each answered 400 before anything is stored:
#: (case id, method, target with {sid} for the session, JSON body).
_MALFORMED = [
    ("create-top_k-text", "POST", "/sessions", {"top_k": "abc"}),
    ("create-top_k-null", "POST", "/sessions", {"top_k": None}),
    ("create-candidates-text", "POST", "/sessions",
     {"params": {"candidates_per_shard": "x"}}),
    ("create-nprobe-text", "POST", "/sessions",
     {"params": {"nominator": "ivf", "nprobe": "x"}}),
    ("results-top_k-text", "GET", "/sessions/{sid}/results?top_k=abc",
     None),
    ("explain-round-text", "GET", "/sessions/{sid}/explain?round=x", None),
    ("feed-label-string", "POST", "/sessions/{sid}/feed",
     {"labels": {"{bag}": "false"}}),
    ("feed-label-null", "POST", "/sessions/{sid}/feed",
     {"labels": {"{bag}": None}}),
    ("feed-label-int", "POST", "/sessions/{sid}/feed",
     {"labels": {"{bag}": 2}}),
]


class TestMalformedInput:
    @pytest.mark.parametrize("case,method,target,doc", _MALFORMED,
                             ids=[c[0] for c in _MALFORMED])
    def test_rejected_with_400_and_nothing_stored(
            self, service, service_db, case, method, target, doc):
        _, clips = service_db
        sid = _create(service, clips, user="olga")[1]["session"]
        corpus_id = "merged:" + "+".join(clips)
        bag = _call(service, "GET",
                    f"/sessions/{sid}/results")[1]["results"][0]["bag_id"]
        if doc is not None and "labels" in doc:
            doc = {"labels": {str(bag): v for v in doc["labels"].values()}}
        elif method == "POST":
            doc = {"user": "mallory", "clips": clips, **doc}
        db = service.db

        def stored():
            return (len(db.labels(corpus_id, "accident")),
                    len(db.session_records()), len(db.query_rounds()))

        before = stored()
        status, reply = _call(service, method, target.format(sid=sid), doc)
        assert status == 400, reply
        assert reply["error"] == "bad_request"
        assert stored() == before


class TestCorpusSharing:
    def test_same_corpus_shared_across_users(self, service, service_db):
        _, clips = service_db
        sid_a = _create(service, clips, user="gil")[1]["session"]
        sid_b = _create(service, clips, user="hana")[1]["session"]
        a = service._sessions[sid_a].session
        b = service._sessions[sid_b].session
        assert a.dataset is b.dataset  # one ShardedCorpus, one GramCache
        corpus = weakref.ref(a.dataset)
        del a, b
        _call(service, "DELETE", f"/sessions/{sid_a}")
        gc.collect()
        assert corpus() is not None  # the other session still holds it
        _call(service, "DELETE", f"/sessions/{sid_b}")
        gc.collect()
        assert corpus() is None

    def test_lru_eviction_keeps_cap(self, service_db):
        path, clips = service_db
        svc = RetrievalService(path, max_sessions=2)
        try:
            for user in ("ira", "jo", "kai"):
                _create(svc, clips, user=user)
            resident = [sid for sid, e in svc._sessions.items()
                        if e.session is not None]
            assert len(resident) == 2
            assert any(sid.startswith("kai:") for sid in resident)
        finally:
            svc.close()


class TestCrossWorkerResume:
    """Acceptance: a session created on one worker resumes with an
    identical ranking on another, and concurrent feeds conflict."""

    def test_resume_on_second_worker_matches(self, service_db):
        path, clips = service_db
        a, b = RetrievalService(path), RetrievalService(path)
        try:
            sid = _create(a, clips, user="lena")[1]["session"]
            _label_round(a, sid)
            _label_round(a, sid, flip=True)
            ranking_a = _call(a, "GET", f"/sessions/{sid}/results")[1]

            status, doc = _call(b, "GET", f"/sessions/{sid}/results")
            assert status == 200
            assert doc["round"] == 2
            assert doc["results"] == ranking_a["results"]
        finally:
            a.close()
            b.close()

    def test_concurrent_feed_conflicts_with_409(self, service_db):
        path, clips = service_db
        a, b = RetrievalService(path), RetrievalService(path)
        try:
            sid = _create(a, clips, user="mara")[1]["session"]
            # both workers materialize the session at round 0
            ranking_b = _call(b, "GET", f"/sessions/{sid}/results")[1]
            assert ranking_b["round"] == 0

            assert _label_round(a, sid)[0] == 200  # worker A wins
            status, doc = _label_round(b, sid)     # worker B loses loudly
            assert status == 409
            assert doc["error"] == "session_conflict"
            assert doc["round"] == 1  # already resynced onto A's history
            # B's retry against the synced state succeeds as round 1
            assert _label_round(b, sid)[0] == 200
            assert _call(a, "GET", f"/sessions/{sid}")[1]["round"] == 1
        finally:
            a.close()
            b.close()


def _http(conn, method, target, doc=None):
    """One request down a keep-alive connection: (status, parsed body)."""
    body = json.dumps(doc).encode() if doc is not None else None
    conn.request(method, target, body=body)
    resp = conn.getresponse()
    data = resp.read()
    if resp.headers.get_content_type() == "application/json":
        return resp.status, json.loads(data)
    return resp.status, data


class TestHTTPServer:
    def test_end_to_end_over_http(self, service_db):
        path, clips = service_db
        svc = RetrievalService(path)
        with RetrievalHTTPServer(svc, port=0, max_workers=4) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)

            def req(method, target, doc=None):
                return _http(conn, method, target, doc)

            status, doc = req("POST", "/sessions",
                              {"user": "nia", "clips": clips,
                               "event": "accident", "top_k": 8})
            assert status == 201
            sid = doc["session"]

            status, doc = req("GET", f"/sessions/{sid}/results")
            assert status == 200 and len(doc["results"]) == 8
            labels = {str(r["bag_id"]): True for r in doc["results"][:4]}
            status, doc = req("POST", f"/sessions/{sid}/feed",
                              {"labels": labels})
            assert status == 200 and doc["round"] == 1

            status, body = req("GET", "/metrics")
            assert status == 200
            assert b"service_requests_total" in body
            status, _ = req("GET", "/healthz")
            assert status in (200, 503)
            status, doc = req("GET", "/sessions/none")
            assert status == 404
            conn.close()
        svc.close()

    def test_concurrent_keep_alive_clients(self, service_db):
        """Two keep-alive clients interleave ten sessions each, two
        rounds per session: no request fails server-side and every
        session ends at round 2."""
        path, clips = service_db
        svc = RetrievalService(path)
        statuses, rounds, errors = [], {}, []

        def client(prefix):
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)

            def req(method, target, doc=None):
                status, reply = _http(conn, method, target, doc)
                statuses.append(status)
                return reply

            try:
                for i in range(10):
                    sid = req("POST", "/sessions",
                              {"user": f"{prefix}{i}", "clips": clips,
                               "event": "accident", "top_k": 8})["session"]
                    for _ in range(2):
                        results = req("GET", f"/sessions/{sid}/results")
                        req("POST", f"/sessions/{sid}/feed", {"labels": {
                            str(r["bag_id"]): j % 2 == 0
                            for j, r in enumerate(results["results"])}})
                    rounds[sid] = req("GET", f"/sessions/{sid}")["round"]
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
            finally:
                conn.close()

        with RetrievalHTTPServer(svc, port=0, max_workers=4) as server:
            threads = [threading.Thread(target=client, args=(p,))
                       for p in ("cat", "dov")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        svc.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert statuses and max(statuses) < 500
        assert len(rounds) == 20 and set(rounds.values()) == {2}

    def test_keep_alive_and_bad_request(self, service_db):
        path, _clips = service_db
        svc = RetrievalService(path)
        with RetrievalHTTPServer(svc, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            for _ in range(3):  # several requests down one connection
                conn.request("GET", "/")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            conn.close()

            raw = socket.create_connection(("127.0.0.1", server.port),
                                           timeout=30)
            raw.sendall(b"BOGUS\r\n\r\n")
            reply = raw.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400")
            raw.close()
        svc.close()

    @pytest.mark.parametrize("head, status", [
        (b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
        (b"POST / HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n", 413),
        (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431),
    ], ids=["negative-length", "signed-length", "underscore-length",
            "body-over-8MiB", "head-over-64KiB"])
    def test_bad_request_head_is_refused(self, service_db, head, status):
        path, _clips = service_db
        svc = RetrievalService(path)
        with RetrievalHTTPServer(svc, port=0) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=5) as raw:
                raw.sendall(head)
                reply = raw.recv(4096)
        svc.close()
        assert reply.startswith(b"HTTP/1.1 %d " % status), reply

    def test_stop_closes_idle_keep_alive_connections(self, service_db):
        path, _clips = service_db
        svc = RetrievalService(path)
        server = RetrievalHTTPServer(svc, port=0).start()
        loop_thread = server._thread
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=2)
        try:
            conn.request("GET", "/")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200 and not resp.will_close
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 2.0
            assert not loop_thread.is_alive()
            assert conn.sock.recv(1) == b""  # EOF, not a 2 s timeout
        finally:
            conn.close()
            server.stop()
            svc.close()

    def test_port_conflict_raises(self, service_db, monkeypatch):
        path, _clips = service_db
        svc = RetrievalService(path)
        loops = []
        new_event_loop = asyncio.new_event_loop

        def tracked_loop():
            loops.append(new_event_loop())
            return loops[-1]

        with RetrievalHTTPServer(svc, port=0) as server:
            other = RetrievalHTTPServer(svc, port=server.port)
            monkeypatch.setattr(asyncio, "new_event_loop", tracked_loop)
            with pytest.raises(OSError):
                other.start()
        svc.close()
        assert len(loops) == 1 and loops[0].is_closed()
