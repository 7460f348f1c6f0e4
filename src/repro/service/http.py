"""Stdlib asyncio HTTP/1.1 front end for the retrieval service.

The framing, keep-alive, connection shutdown and disconnect accounting
are the repo's one HTTP server, :class:`~repro.obs.live.AsyncHTTPServer`
(which lives in :mod:`repro.obs` because :mod:`repro.db` imports
:mod:`repro.obs`); this module names it for the service.
"""

from __future__ import annotations

from repro.obs.live import AsyncHTTPServer

__all__ = ["RetrievalHTTPServer"]


class RetrievalHTTPServer(AsyncHTTPServer):
    """Threaded-asyncio HTTP host for one :class:`RetrievalService`.

    Request handling (:meth:`RetrievalService.handle`: SVM rounds,
    catalog I/O) runs on the server's worker pool.  ``max_workers``
    bounds concurrent in-flight requests — the service layer is
    thread-safe, so this is purely a throughput/memory knob.
    """
