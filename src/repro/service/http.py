"""Stdlib asyncio HTTP/1.1 front end for the retrieval service.

One background thread runs an ``asyncio`` event loop whose
``start_server`` connections do nothing but frame HTTP — read a head,
read a ``Content-Length`` body, write a response — while the actual
request handling (:meth:`RetrievalService.handle`: SVM rounds, catalog
I/O) runs on a ``ThreadPoolExecutor`` so a slow round never stalls the
accept loop or other clients' framing.  Keep-alive is supported, so a
load driver (or the benchmark) can push many rounds down one
connection.

Client disconnects mid-response are swallowed and counted via the same
``obs.live.client_disconnects`` counter the hardened
:class:`~repro.obs.LiveMetricsServer` handler uses — a hung-up client
is the client's business, not a server error.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS

from repro.obs import count_client_disconnect, get_telemetry

__all__ = ["RetrievalHTTPServer"]

_MAX_BODY = 8 * 1024 * 1024


class _BadRequest(Exception):
    pass


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, headers)`` from one request head."""
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
    return method, target, version, headers


def _response(status: int, content_type: str, body: bytes, *,
              keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


class RetrievalHTTPServer:
    """Threaded-asyncio HTTP host for one :class:`RetrievalService`.

    ``port=0`` binds an ephemeral port (see :attr:`port`/:attr:`url`
    after :meth:`start`).  ``max_workers`` bounds concurrent in-flight
    requests — the service layer is thread-safe, so this is purely a
    throughput/memory knob.  Usable as a context manager.
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

    # ------------------------------------------------------------ control
    def start(self) -> "RetrievalHTTPServer":
        if self._thread is not None:
            return self
        self._started.clear()
        self._startup_error = None
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-service")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover
            raise RuntimeError("service event loop failed to start")
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self.stop()
            raise error
        return self

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            server = self._loop.run_until_complete(asyncio.start_server(
                self._client, self.host, self.requested_port))
        except OSError as exc:
            self._startup_error = exc
            self._loop.close()
            self._started.set()
            return
        self._bound_port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
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

    def __enter__(self) -> "RetrievalHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # --------------------------------------------------------- connection
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client closed between requests
                except asyncio.LimitOverrunError:
                    writer.write(_response(
                        431, "text/plain", b"request head too large\n",
                        keep_alive=False))
                    await writer.drain()
                    return
                try:
                    method, target, version, headers = _parse_head(head)
                    length = int(headers.get("content-length", "0"))
                except (_BadRequest, ValueError) as exc:
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
            count_client_disconnect(get_telemetry())
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
