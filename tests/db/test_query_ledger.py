"""Quality ledger: per-round persistence, filtering, session rollups,
and the never-fail-a-query resilience contract."""

import pytest

from repro.db import SemanticQuerySession, VideoDatabase
from repro.errors import StorageError
from repro.eval import build_artifacts
from repro.obs import Telemetry, set_telemetry
from repro.reliability.faults import FaultInjector, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry = Telemetry()
    previous = set_telemetry(telemetry)
    yield telemetry
    set_telemetry(previous)


@pytest.fixture()
def tunnel_db(small_tunnel, tmp_path):
    db = VideoDatabase(tmp_path / "repro.db")
    artifacts = build_artifacts(small_tunnel, mode="oracle")
    db.ingest_simulation(small_tunnel, artifacts.tracks, artifacts.dataset)
    return db


class TestLedgerStorage:
    def test_record_and_filter(self, tmp_path):
        db = VideoDatabase(tmp_path / "x.db")
        for i in range(3):
            db.record_query_round(
                session_id="u:c:e", query_id="q1", corpus_id="c",
                event="e", round_index=i, op="results", latency_ms=float(i),
                detail={"op": "results"}, spans=[{"name": "query.round"}])
        db.record_query_round(
            session_id="u2:c:e", query_id="q2", corpus_id="c",
            event="e", round_index=0, op="feed")
        assert len(db.query_rounds()) == 4
        mine = db.query_rounds(session_id="u:c:e")
        assert [r["round_index"] for r in mine] == [0, 1, 2]
        assert mine[1]["detail"] == {"op": "results"}
        assert mine[1]["spans"] == [{"name": "query.round"}]
        assert db.query_rounds(query_id="q2")[0]["op"] == "feed"
        assert len(db.query_rounds(session_id="u:c:e", round_index=2)) == 1

    def test_sessions_rollup(self, tmp_path):
        db = VideoDatabase(tmp_path / "x.db")
        for i in range(2):
            db.record_query_round(
                session_id="u:c:e", query_id="q1", corpus_id="c",
                event="e", round_index=i, op="results")
        sessions = db.query_sessions()
        assert len(sessions) == 1
        assert sessions[0]["rounds"] == 2
        assert sessions[0]["last_round"] == 1
        assert sessions[0]["session_id"] == "u:c:e"

    def test_empty_identity_rejected(self, tmp_path):
        db = VideoDatabase(tmp_path / "x.db")
        with pytest.raises(StorageError, match="non-empty"):
            db.record_query_round(session_id="", query_id="q",
                                  corpus_id="c", event="e",
                                  round_index=0, op="results")

    def test_ledger_survives_reopen(self, tmp_path):
        path = tmp_path / "x.db"
        VideoDatabase(path).record_query_round(
            session_id="u:c:e", query_id="q1", corpus_id="c", event="e",
            round_index=0, op="results")
        assert len(VideoDatabase(path).query_rounds()) == 1


class TestSessionLedgerIntegration:
    def test_rounds_are_ledgered_with_one_query_id(self, tunnel_db,
                                                   small_tunnel):
        session = SemanticQuerySession(tunnel_db, small_tunnel.name,
                                       "accident", top_k=5)
        ids = session.results()
        session.feed({b: (i % 2 == 0) for i, b in enumerate(ids)})
        session.results()
        rows = tunnel_db.query_rounds(session_id=session.session_id)
        assert [(r["round_index"], r["op"]) for r in rows] == \
            [(0, "results"), (0, "feed"), (1, "results")]
        assert {r["query_id"] for r in rows} == {session.query_id}
        for row in rows:
            span_qids = {s.get("attrs", {}).get("query_id")
                         for s in row["spans"]}
            assert span_qids == {session.query_id}
            assert row["latency_ms"] > 0
            assert row["detail"]["cache"].keys() == \
                {"gram_columns_reused", "gram_columns_computed",
                 "hit_rate"}

    def test_fit_memo_hits_are_ledgered_per_session(self, tunnel_db,
                                                    small_tunnel):
        """Two users label the same bags: the second round's fit comes
        from the corpus' fit memo, so it has no svm.fit span, and its
        row says so.  Rounds without a fit say nothing."""
        sessions = [SemanticQuerySession(tunnel_db, small_tunnel.name,
                                         "accident", user_id=user, top_k=5)
                    for user in ("ann", "bob")]
        ids = sessions[0].results()
        for session in sessions:
            session.feed({b: (i % 2 == 0) for i, b in enumerate(ids)})
        ops = {(s.session_id, r["op"]): r for s in sessions
               for r in tunnel_db.query_rounds(session_id=s.session_id)}
        feeds = [ops[s.session_id, "feed"] for s in sessions]
        assert [r["detail"]["fits"] for r in feeds] == [
            {"count": 1, "memo_hits": 0}, {"count": 1, "memo_hits": 1}]
        assert [sum(s["name"] == "svm.fit" for s in r["spans"])
                for r in feeds] == [1, 0]
        assert "fits" not in ops[sessions[0].session_id, "results"]["detail"]

    def test_resumed_session_extends_same_ledger_session(self, tunnel_db,
                                                         small_tunnel):
        first = SemanticQuerySession(tunnel_db, small_tunnel.name,
                                     "accident", top_k=5)
        first.feed({b: True for b in first.results()})
        resumed = SemanticQuerySession(tunnel_db, small_tunnel.name,
                                       "accident", top_k=5)
        resumed.results()
        rows = tunnel_db.query_rounds(session_id=first.session_id)
        # Same session id, two distinct query (object) identities.
        assert resumed.session_id == first.session_id
        assert resumed.query_id != first.query_id
        assert {r["query_id"] for r in rows} == \
            {first.query_id, resumed.query_id}
        assert rows[-1]["round_index"] == 1  # resume continued the count

    def test_ledger_opt_out(self, tunnel_db, small_tunnel, fresh_telemetry):
        session = SemanticQuerySession(tunnel_db, small_tunnel.name,
                                       "accident", top_k=5, ledger=False)
        session.results()
        assert tunnel_db.query_rounds() == []
        # The latency histogram still observes — only the ledger is off.
        h = fresh_telemetry.histogram("query.round.latency_ms")
        assert sum(p.count for _, p in h.series()) == 1

    def test_disabled_telemetry_skips_ledger_entirely(self, tunnel_db,
                                                      small_tunnel):
        set_telemetry(Telemetry(enabled=False))
        session = SemanticQuerySession(tunnel_db, small_tunnel.name,
                                       "accident", top_k=5)
        assert len(session.results()) == 5
        assert tunnel_db.query_rounds() == []

    def test_ledger_write_failure_never_fails_the_round(
            self, small_tunnel, tmp_path, fresh_telemetry):
        # Healthy warm-up (ingest + resume reads), then every INSERT
        # into the ledger hits an injected SQLITE_BUSY.
        injector = FaultInjector(FaultPlan([
            FaultRule(op="db.execute", kind="busy",
                      key_substring="INSERT INTO query_rounds"),
        ], seed=1))
        injector.enabled = False
        db = VideoDatabase(tmp_path / "x.db",
                           connection_factory=injector.connect)
        artifacts = build_artifacts(small_tunnel, mode="oracle")
        db.ingest_simulation(small_tunnel, artifacts.tracks,
                             artifacts.dataset)
        session = SemanticQuerySession(db, small_tunnel.name, "accident",
                                       top_k=5)
        injector.enabled = True
        injector.plan = FaultPlan([
            FaultRule(op="db.execute", kind="busy", rate=1.0,
                      key_substring="INSERT INTO query_rounds"),
        ], seed=1)
        ids = session.results()  # must not raise
        assert len(ids) == 5
        injector.enabled = False
        assert db.query_rounds() == []
        warnings = [e for e in fresh_telemetry.events
                    if e["name"] == "query.ledger_write_failed"]
        assert len(warnings) == 1
        assert "Busy" in warnings[0]["reason"] \
            or "locked" in warnings[0]["reason"]
