"""The repo's one HTTP server, and the live scrape endpoint built on it.

:class:`AsyncHTTPServer` serves any object with a
``handle(method, target, body) -> (status, content_type, body)``
method.  One background thread runs an ``asyncio`` event loop whose
``start_server`` connections do nothing but frame HTTP/1.1 — read a
head, read a ``Content-Length`` body, write a response — while
``handle`` itself runs on a ``ThreadPoolExecutor``, so a slow request
never stalls the accept loop or other clients' framing.  Keep-alive is
supported, so a load driver (or the benchmark) can push many requests
down one connection.  The retrieval service
(:class:`~repro.service.RetrievalHTTPServer`) and the scrape endpoint
below are both this server.

:class:`LiveMetricsServer` serves two documents: ``/metrics`` is
Prometheus text (the exact output of
:func:`~repro.obs.exporters.prometheus_text`, so scrape and file dump
never disagree) and ``/healthz`` is a JSON health document that folds in
the SLO set :data:`~repro.obs.slo.DEFAULT_SLOS`: status ``ok`` while
every objective with samples is met, ``degraded`` otherwise.

The rendering itself lives in :func:`render_metrics` /
:func:`render_healthz` so the retrieval service (:mod:`repro.service`)
serves byte-identical ``/metrics`` and ``/healthz`` documents without
duplicating the logic.

The scrape endpoint resolves the registry *per request*
(:func:`repro.obs.get_telemetry`), so tests that swap registries and the
CLI's per-command registries are always the thing scraped.  ``port=0``
binds an ephemeral port — the chosen one is in :attr:`port`/:attr:`url`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS

from repro.obs.exporters import prometheus_text
from repro.obs.slo import evaluate_slos

__all__ = ["AsyncHTTPServer", "LiveMetricsServer", "render_metrics",
           "render_healthz"]

_MAX_BODY = 8 * 1024 * 1024


def render_metrics(telemetry) -> tuple[int, str, bytes]:
    """``(status, content_type, body)`` for a ``/metrics`` scrape."""
    body = prometheus_text(telemetry).encode("utf-8")
    return 200, "text/plain; version=0.0.4", body


def render_healthz(telemetry) -> tuple[int, str, bytes]:
    """``(status, content_type, body)`` for a ``/healthz`` probe.

    Healthy (200/``ok``) while every SLO *with samples* is met; 503 /
    ``degraded`` once any sampled objective is breached.  Unsampled
    objectives are listed but never fail the probe — an idle service is
    not a broken one.
    """
    statuses = evaluate_slos(telemetry)
    sampled = [st for st in statuses if st.samples > 0]
    healthy = all(st.met for st in sampled)
    doc = {
        "status": "ok" if healthy else "degraded",
        "slos": [{
            "name": st.name,
            "met": st.met,
            "samples": st.samples,
            "measured": None if st.samples == 0 else st.measured,
            "burn_rate": st.burn_rate,
        } for st in statuses],
    }
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    return (200 if healthy else 503), "application/json", body


class _BadRequest(Exception):
    pass


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str], int]:
    """``(method, target, version, headers, content_length)`` from one
    request head."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise _BadRequest("undecodable request head") from exc
    lines = text.split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise _BadRequest(f"malformed request line {lines[0]!r}") from exc
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise _BadRequest(f"unsupported version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    # ASCII digits only: ``int()`` would also take "-5", "+3" and "1_0".
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest(f"bad Content-Length {length!r}")
    return method, target, version, headers, int(length)


def _response(status: int, content_type: str, body: bytes, *,
              keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


class AsyncHTTPServer:
    """Threaded-asyncio HTTP/1.1 host for one ``handle()`` object.

    ``service`` is any object with ``handle(method, target, body)``
    returning ``(status, content_type, body)``.  ``port=0`` binds an
    ephemeral port (see :attr:`port`/:attr:`url` after :meth:`start`).
    ``max_workers`` bounds concurrent in-flight requests — ``handle``
    must be thread-safe when it is above 1.  Usable as a context
    manager; :meth:`stop` closes every open connection, idle keep-alive
    ones included.
    """

    def __init__(self, service, *, host: str = "127.0.0.1", port: int = 0,
                 max_workers: int = 8) -> None:
        self.service = service
        self.host = host
        self.requested_port = int(port)
        self.max_workers = int(max_workers)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._bound_port = 0
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopping = False

    def resolve_telemetry(self):
        """The registry client disconnects are counted in."""
        from repro.obs import get_telemetry  # late: avoids module cycle

        return get_telemetry()

    # ------------------------------------------------------------ control
    def start(self) -> "AsyncHTTPServer":
        if self._thread is not None:
            return self
        self._started.clear()
        self._startup_error = None
        self._stopping = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-http")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, args=(self._loop,), name="repro-http-loop",
            daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("HTTP server event loop failed to start")
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self.stop()
            raise error
        return self

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        try:
            server = loop.run_until_complete(asyncio.start_server(
                self._client, self.host, self.requested_port))
        except OSError as exc:
            self._startup_error = exc
            loop.close()
            self._started.set()
            return
        self._bound_port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            # Close every open connection, idle keep-alive ones included,
            # and let its task finish: its client reads EOF, and
            # ``wait_closed`` (which since Python 3.12.1 waits for open
            # connections) returns.  A connection accepted too late to be
            # in ``_writers`` sees ``_stopping`` and closes itself.
            self._stopping = True
            for writer in self._writers:
                writer.close()
            while tasks := asyncio.all_tasks(loop):
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        # ``_run`` holds its own reference to the loop, so clearing ours
        # is safe even if the join above timed out.
        self._thread = None
        self._loop = None
        self._pool = None
        self._bound_port = 0

    @property
    def port(self) -> int:
        return self._bound_port or self.requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "AsyncHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # --------------------------------------------------------- connection
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while not self._stopping:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client (or stop()) closed between requests
                except asyncio.LimitOverrunError:
                    writer.write(_response(
                        431, "text/plain", b"request head too large\n",
                        keep_alive=False))
                    await writer.drain()
                    return
                try:
                    method, target, version, headers, length = \
                        _parse_head(head)
                except _BadRequest as exc:
                    writer.write(_response(
                        400, "text/plain", f"{exc}\n".encode(),
                        keep_alive=False))
                    await writer.drain()
                    return
                if length > _MAX_BODY:
                    writer.write(_response(
                        413, "text/plain", b"request body too large\n",
                        keep_alive=False))
                    await writer.drain()
                    return
                body = b""
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return
                loop = asyncio.get_running_loop()
                status, ctype, payload = await loop.run_in_executor(
                    self._pool, self.service.handle, method, target, body)
                keep = (version == "HTTP/1.1"
                        and headers.get("connection", "").lower()
                        != "close")
                writer.write(_response(status, ctype, payload,
                                       keep_alive=keep))
                await writer.drain()
                if not keep:
                    return
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response: that is the client's
            # business, not a server fault.  Count it, so a disconnect
            # storm is still visible on the very endpoint that survives
            # it; a connection stop() closed mid-request is not one.
            if not self._stopping:
                self.resolve_telemetry().counter(
                    "obs.live.client_disconnects").inc()
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class LiveMetricsServer(AsyncHTTPServer):
    """Background scrape endpoint for one process.

    Serves ``GET /metrics`` and ``GET /healthz``, answers 404 otherwise,
    and counts every request in ``obs.live.requests`` by path.  Usable
    as a context manager; ``stop()`` (or exiting the ``with`` block)
    closes the listener and joins the serving thread.  The *current*
    process-wide registry is served, whatever
    :func:`~repro.obs.set_telemetry` has made current by scrape time.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(self, host=host, port=port, max_workers=1)

    def handle(self, method: str, target: str,
               body: bytes) -> tuple[int, str, bytes]:
        path = target.partition("?")[0]
        known = method == "GET" and path in ("/metrics", "/healthz")
        telemetry = self.resolve_telemetry()
        telemetry.counter("obs.live.requests").inc(
            path=path if known else "other")
        if not known:
            return 404, "text/plain", b"not found\n"
        if path == "/metrics":
            return render_metrics(telemetry)
        return render_healthz(telemetry)
