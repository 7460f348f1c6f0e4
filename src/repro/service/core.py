"""Framework-agnostic core of the multi-tenant retrieval service.

:class:`RetrievalService` owns the worker-side state — one catalog its
worker threads share (each thread on its own connection), and an
in-memory cache of live session objects, which share one corpus per
``(clips, event)`` through the catalog's corpus registry
(:func:`~repro.db.query.sharded_corpus`) — and routes
``(method, path, body)`` triples to JSON responses.  It knows nothing
about sockets; :mod:`repro.service.http` (or any other front end, or a
test calling :meth:`RetrievalService.handle` directly) supplies the
transport.

Session lifecycle
-----------------
``POST /sessions`` registers a durable :class:`~repro.db.SessionRecord`
in the catalog and materializes the session in this worker.  Re-creating
a session resumes it when the create repeats the stored engine,
``top_k`` and ``params``, and answers 409 with the stored ones when it
does not: no worker's resident session could follow the change.  The
session *object* is a cache: any worker that receives a request for an
unknown session id reconstructs it from the record and the stored label
history (the library's normal resume path), so workers are
interchangeable.  Two workers feeding the same session race on the
optimistic round guard — the loser gets 409 with its session already
resynced onto the winning history.
"""

from __future__ import annotations

import json
import threading
import time
from urllib.parse import parse_qs

from repro.db.database import VideoDatabase
from repro.db.query import (
    MultiClipQuerySession,
    merged_corpus_id,
    session_id_for,
)
from repro.db.schema import SessionRecord
from repro.errors import (
    ConfigurationError,
    DatabaseBusyError,
    ReproError,
    SessionConflictError,
    StorageError,
)
from repro.obs import get_telemetry, render_healthz, render_metrics

__all__ = ["RetrievalService"]

_JSON = "application/json"

#: Engine parameters a client may set per session (everything else in
#: ``params`` is rejected at the boundary — the payload is persisted and
#: replayed into :class:`MultiClipQuerySession` kwargs on every resume).
_ALLOWED_PARAMS = frozenset({
    "candidates_per_shard", "nominator", "index_cells", "nprobe",
    "failure_policy",
})
#: The ``params`` that must be JSON integers (or null) when present.
_INT_PARAMS = ("candidates_per_shard", "index_cells", "nprobe")


class _HTTPError(ReproError):
    """Internal: carry an HTTP status through the dispatch path."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _SessionEntry:
    """One resident session: the object plus its serialization lock."""

    __slots__ = ("lock", "session", "last_used")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.session: MultiClipQuerySession | None = None
        self.last_used = 0


def _json_body(status: int, doc: dict) -> tuple[int, str, bytes]:
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    return status, _JSON, body


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (booleans are not), else 400."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _HTTPError(400, f"{name} must be an integer, got {value!r}")
    return value


def _query_int(params: dict, name: str) -> int | None:
    """The integer query parameter ``name`` (``None`` if absent), or 400."""
    if name not in params:
        return None
    try:
        return int(params[name])
    except ValueError:
        raise _HTTPError(400, f"{name} must be an integer, got "
                              f"{params[name]!r}") from None


class RetrievalService:
    """Many concurrent relevance-feedback sessions over one catalog.

    Parameters
    ----------
    db_path:
        File-backed catalog (WAL mode).  ``":memory:"`` is rejected —
        it is one connection, and worker threads must not share one
        connection's transaction state.
    max_sessions:
        Soft cap on resident session objects per worker; beyond it the
        least-recently-used idle session is evicted (its durable record
        and label history survive, so it resumes transparently on next
        touch).
    ledger:
        Whether sessions append per-round quality-ledger rows (the
        ``explain`` endpoint reads them back).
    """

    def __init__(self, db_path, *, max_sessions: int = 256,
                 ledger: bool = True) -> None:
        if max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        if str(db_path) == ":memory:":
            raise ConfigurationError(
                "RetrievalService needs a file-backed catalog: a "
                "':memory:' catalog is one connection, which every worker "
                "thread would share")
        self.db = VideoDatabase(db_path)
        self.max_sessions = int(max_sessions)
        self.ledger = bool(ledger)
        self._sessions: dict[str, _SessionEntry] = {}
        self._lock = threading.Lock()
        self._seq = 0

    # ------------------------------------------------------------ routing
    def handle(self, method: str, target: str,
               body: bytes | None = None) -> tuple[int, str, bytes]:
        """Serve one request; returns ``(status, content_type, body)``.

        Error taxonomy → status: bad input 400, unknown session or
        record 404, optimistic round conflict 409, catalog busy beyond
        its timeout 503, anything unexpected 500.  Every request is
        spanned and counted under a bounded route template.
        """
        obs = get_telemetry()
        path, _, query = target.partition("?")
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        route = self._route_template(method, path)
        t0 = time.perf_counter()
        status = 500
        try:
            with obs.span("service.request", route=route):
                status, ctype, payload = self._dispatch(
                    method, path, params, body)
        except _HTTPError as exc:
            status, ctype, payload = _json_body(
                exc.status, {"error": "bad_request" if exc.status == 400
                             else "not_found", "message": str(exc)})
        except SessionConflictError as exc:
            status, ctype, payload = _json_body(409, {
                "error": "session_conflict", "message": str(exc),
                "round": exc.stored_next_round})
        except ConfigurationError as exc:
            status, ctype, payload = _json_body(
                400, {"error": "bad_request", "message": str(exc)})
        except DatabaseBusyError as exc:
            status, ctype, payload = _json_body(
                503, {"error": "busy", "message": str(exc)})
        except StorageError as exc:
            # The routine storage failure at this boundary is a lookup
            # of something that isn't there (unknown session record,
            # missing dataset); surface it as 404 with the reason.
            status, ctype, payload = _json_body(
                404, {"error": "not_found", "message": str(exc)})
        except ReproError as exc:
            status, ctype, payload = _json_body(
                400, {"error": "bad_request", "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - service boundary
            obs.event("service.request_failed", level="error",
                      route=route, reason=f"{type(exc).__name__}: {exc}")
            status, ctype, payload = _json_body(
                500, {"error": "internal",
                      "message": f"{type(exc).__name__}: {exc}"})
        finally:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            obs.counter("service.requests").inc(route=route,
                                                status=str(status))
            obs.histogram("service.request.latency_ms").observe(
                wall_ms, route=route)
        return status, ctype, payload

    @staticmethod
    def _route_template(method: str, path: str) -> str:
        """Collapse paths onto a bounded label set for metrics."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            return f"{method} /"
        if parts[0] in ("healthz", "metrics") and len(parts) == 1:
            return f"{method} /{parts[0]}"
        if parts[0] == "sessions":
            if len(parts) == 1:
                return f"{method} /sessions"
            if len(parts) == 2:
                return f"{method} /sessions/:id"
            if len(parts) == 3 and parts[2] in ("feed", "results",
                                                "explain"):
                return f"{method} /sessions/:id/{parts[2]}"
        return f"{method} other"

    def _dispatch(self, method: str, path: str, params: dict,
                  body: bytes | None) -> tuple[int, str, bytes]:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and not parts:
            return self._index()
        if method == "GET" and parts == ["healthz"]:
            return render_healthz(get_telemetry())
        if method == "GET" and parts == ["metrics"]:
            return render_metrics(get_telemetry())
        if parts and parts[0] == "sessions":
            if len(parts) == 1:
                if method == "POST":
                    return self._create(self._payload(body))
                if method == "GET":
                    return self._list_sessions()
            elif len(parts) == 2:
                if method == "GET":
                    return self._session_info(parts[1])
                if method == "DELETE":
                    return self._close(parts[1])
            elif len(parts) == 3:
                sid, op = parts[1], parts[2]
                if method == "POST" and op == "feed":
                    return self._feed(sid, self._payload(body))
                if method == "GET" and op == "results":
                    return self._results(sid, params)
                if method == "GET" and op == "explain":
                    return self._explain(sid, params)
        raise _HTTPError(404, f"no route for {method} {path}")

    @staticmethod
    def _payload(body: bytes | None) -> dict:
        if not body:
            return {}
        try:
            doc = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"request body is not JSON: {exc}") \
                from exc
        if not isinstance(doc, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return doc

    # ---------------------------------------------------------- endpoints
    def _index(self) -> tuple[int, str, bytes]:
        return _json_body(200, {
            "service": "repro-retrieval",
            "endpoints": [
                "POST /sessions", "GET /sessions",
                "GET /sessions/<id>", "DELETE /sessions/<id>",
                "POST /sessions/<id>/feed",
                "GET /sessions/<id>/results",
                "GET /sessions/<id>/explain",
                "GET /healthz", "GET /metrics",
            ],
        })

    @staticmethod
    def _validate_user(user: str) -> None:
        """The service's auth boundary for tenant identifiers.

        Mirrors the session-level check: the ledger key is
        ``user:corpus:event`` and the corpus id legitimately contains
        ``:``, so a ``:`` in the user field would let two tenants
        collide into one feedback history.
        """
        if not user or len(user) > 128 or ":" in user \
                or any(c.isspace() or not c.isprintable() for c in user):
            raise _HTTPError(
                400, f"invalid user id {user!r}: must be 1-128 printable "
                     f"characters with no whitespace and no ':'")

    def _create(self, payload: dict) -> tuple[int, str, bytes]:
        user = str(payload.get("user", "default"))
        self._validate_user(user)
        clips = payload.get("clips")
        if (not isinstance(clips, list) or not clips
                or not all(isinstance(c, str) and c for c in clips)):
            raise _HTTPError(
                400, "'clips' must be a non-empty list of clip ids")
        event = str(payload.get("event", "accident"))
        engine = str(payload.get("engine", "mil_ocsvm"))
        top_k = _json_int(payload.get("top_k", 20), "top_k")
        extra = payload.get("params", {})
        if not isinstance(extra, dict):
            raise _HTTPError(400, "'params' must be a JSON object")
        unknown = sorted(set(extra) - _ALLOWED_PARAMS)
        if unknown:
            raise _HTTPError(
                400, f"unknown session params {unknown}; allowed: "
                     f"{sorted(_ALLOWED_PARAMS)}")
        for name in _INT_PARAMS:
            if extra.get(name) is not None:
                _json_int(extra[name], f"params.{name}")
        corpus_id = merged_corpus_id(clips)
        record = SessionRecord(
            session_id=session_id_for(user, corpus_id, event), user_id=user,
            corpus_id=corpus_id, event_name=event,
            clip_ids=tuple(clips), engine=engine, top_k=top_k,
            params=dict(extra))
        try:
            stored = self.db.session_record(record.session_id)
        except DatabaseBusyError:
            raise
        except StorageError:  # no record yet: a new session
            stored = None
        if stored is not None and (
                (stored.engine, stored.top_k, stored.params)
                != (record.engine, record.top_k, record.params)):
            # Rewriting the record would not reach a session object that
            # is already resident here or on another worker, so the
            # session would rank differently depending on who serves it.
            return _json_body(409, {
                "error": "settings_conflict",
                "message": f"session {record.session_id!r} exists with "
                           f"other settings; repeat the stored ones to "
                           f"resume it",
                "stored": {"engine": stored.engine, "top_k": stored.top_k,
                           "params": stored.params}})
        entry, created = self._materialize(record)
        with entry.lock:
            self.db.register_session(record)
            session = entry.session
            return _json_body(201 if created else 200, {
                "session": record.session_id,
                "round": session.round_index,
                "resumed": session.round_index > 0,
                "clips": list(record.clip_ids),
                "event": record.event_name,
                "engine": record.engine,
                "top_k": record.top_k,
            })

    def _feed(self, sid: str, payload: dict) -> tuple[int, str, bytes]:
        raw = payload.get("labels")
        if not isinstance(raw, dict) or not raw:
            raise _HTTPError(
                400, "'labels' must be a non-empty object of "
                     "bag_id -> relevant")
        bad = {k: v for k, v in raw.items() if not isinstance(v, bool)}
        if bad:
            raise _HTTPError(
                400, f"label values must be JSON booleans, got {bad}")
        try:
            labels = {int(k): v for k, v in raw.items()}
        except ValueError as exc:
            raise _HTTPError(400, f"bad label key: {exc}") from exc
        entry = self._resolve(sid)
        with entry.lock:
            session = entry.session
            try:
                session.feed(labels)
            except SessionConflictError as exc:
                # feed() already resynced the session onto the winning
                # history; tell the client which round to retry against.
                return _json_body(409, {
                    "error": "session_conflict", "message": str(exc),
                    "round": session.round_index})
            return _json_body(200, {"session": sid,
                                    "round": session.round_index})

    def _results(self, sid: str, params: dict) -> tuple[int, str, bytes]:
        top_k = _query_int(params, "top_k")
        entry = self._resolve(sid)
        vehicle_class = params.get("vehicle_class")
        with entry.lock:
            session = entry.session
            previous = session.top_k
            if top_k is not None:
                if top_k <= 0:
                    raise _HTTPError(400, "top_k must be positive")
                session.top_k = top_k
            try:
                ids = session.results(vehicle_class=vehicle_class)
            finally:
                session.top_k = previous
            coverage = session.last_coverage
            doc = {
                "session": sid,
                "round": session.round_index,
                "results": [{
                    "bag_id": b,
                    "clip_id": session.dataset.bag_by_id(b).clip_id,
                    "frame_lo": session.dataset.bag_by_id(b).frame_lo,
                    "frame_hi": session.dataset.bag_by_id(b).frame_hi,
                } for b in ids],
            }
            if coverage is not None:
                doc["coverage"] = coverage.summary()
                doc["degraded"] = coverage.degraded
            return _json_body(200, doc)

    def _explain(self, sid: str, params: dict) -> tuple[int, str, bytes]:
        round_index = _query_int(params, "round")
        entry = self._resolve(sid)
        with entry.lock:
            rows = self.db.query_rounds(session_id=sid,
                                        round_index=round_index)
        include_spans = params.get("spans") in ("1", "true")
        for row in rows:
            row.pop("profile", None)
            if not include_spans:
                row.pop("spans", None)
        return _json_body(200, {"session": sid, "rounds": rows})

    def _session_info(self, sid: str) -> tuple[int, str, bytes]:
        record = self.db.session_record(sid)
        with self._lock:
            entry = self._sessions.get(sid)
            active = entry is not None and entry.session is not None
        doc = {
            "session": record.session_id, "user": record.user_id,
            "corpus": record.corpus_id, "event": record.event_name,
            "clips": list(record.clip_ids), "engine": record.engine,
            "top_k": record.top_k, "params": record.params,
            "created_at": record.created_at,
            "last_seen_at": record.last_seen_at,
            "resident": active,
        }
        if active:
            doc["round"] = entry.session.round_index
        return _json_body(200, doc)

    def _list_sessions(self) -> tuple[int, str, bytes]:
        with self._lock:
            resident = {sid for sid, e in self._sessions.items()
                        if e.session is not None}
        return _json_body(200, {"sessions": [{
            "session": rec.session_id, "user": rec.user_id,
            "corpus": rec.corpus_id, "event": rec.event_name,
            "resident": rec.session_id in resident,
        } for rec in self.db.session_records()]})

    def _close(self, sid: str) -> tuple[int, str, bytes]:
        """Evict the resident session object; a corpus no other session
        holds is freed with it.

        The durable record and label history stay — a later request
        resumes the session as if on a fresh worker.
        """
        closed = self._close_session(sid)
        return _json_body(200, {"session": sid, "closed": closed})

    # ----------------------------------------------------- session cache
    def _resolve(self, sid: str) -> _SessionEntry:
        with self._lock:
            entry = self._sessions.get(sid)
            if entry is not None and entry.session is not None:
                self._seq += 1
                entry.last_used = self._seq
                return entry
        # Cross-worker resume: this worker has no live object, but the
        # catalog has the durable record (404 via StorageError if not).
        record = self.db.session_record(sid)
        entry, created = self._materialize(record)
        if created:
            get_telemetry().counter("service.session_resumes").inc()
        return entry

    def _materialize(self, record: SessionRecord
                     ) -> tuple[_SessionEntry, bool]:
        """Get-or-build the resident session for ``record``.

        Returns ``(entry, created)`` with ``entry.session`` guaranteed
        non-``None``.  A placeholder entry is published under the
        global lock first, then built under its own lock, so two
        threads racing on the same id build once while different ids
        build concurrently.
        """
        with self._lock:
            entry = self._sessions.get(record.session_id)
            if entry is None:
                entry = _SessionEntry()
                self._sessions[record.session_id] = entry
            self._seq += 1
            entry.last_used = self._seq
        with entry.lock:
            if entry.session is not None:
                return entry, False
            try:
                entry.session = MultiClipQuerySession(
                    self.db, list(record.clip_ids), record.event_name,
                    user_id=record.user_id, engine=record.engine,
                    top_k=record.top_k, ledger=self.ledger,
                    **record.params)
            except BaseException:
                with self._lock:
                    if self._sessions.get(record.session_id) is entry:
                        del self._sessions[record.session_id]
                raise
            with self._lock:
                resident = sum(1 for e in self._sessions.values()
                               if e.session is not None)
            get_telemetry().gauge("service.sessions_active").set(resident)
        self._evict_lru(keep=record.session_id)
        return entry, True

    def _close_session(self, sid: str, *, blocking: bool = True) -> bool:
        with self._lock:
            entry = self._sessions.get(sid)
        if entry is None:
            return False
        if not entry.lock.acquire(blocking=blocking):
            return False
        try:
            with self._lock:
                if self._sessions.get(sid) is not entry:
                    return False
                del self._sessions[sid]
                resident = sum(1 for e in self._sessions.values()
                               if e.session is not None)
            entry.session = None
            get_telemetry().gauge("service.sessions_active").set(resident)
            return True
        finally:
            entry.lock.release()

    def _evict_lru(self, *, keep: str) -> None:
        """Shed least-recently-used idle sessions beyond the cap.

        Busy entries (lock held — a round in flight, a build in
        progress) are skipped rather than waited on; the cap is soft.
        """
        with self._lock:
            excess = len(self._sessions) - self.max_sessions
            if excess <= 0:
                return
            candidates = sorted(
                (e.last_used, sid) for sid, e in self._sessions.items()
                if sid != keep)
        for _, sid in candidates:
            if excess <= 0:
                return
            if self._close_session(sid, blocking=False):
                excess -= 1

    def close(self) -> None:
        """Release every resident session and close the catalog."""
        with self._lock:
            sids = list(self._sessions)
        for sid in sids:
            self._close_session(sid)
        self.db.close()
