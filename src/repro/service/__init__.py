"""Multi-tenant retrieval service over the video database.

The paper's retrieval loop is inherently multi-user — "the training set
... is built up gradually with the help of the user's feedback", and
relevance is user-specific (Section 1) — so the natural deployment is a
long-running service many analysts query concurrently, not a
per-process library session.  This package provides that service with
zero new dependencies:

* :class:`~repro.service.core.RetrievalService` — the framework-
  agnostic core: session create / feed / results / explain routed from
  ``(method, path, body)`` to JSON responses, sessions persisted in one
  catalog its worker threads share, each thread on its own connection
  (any worker can resume any session), one shared read-only
  :class:`~repro.core.sharded.ShardedCorpus` per ``(corpus, event)``
  via :class:`~repro.core.sharded.CorpusPool` so concurrent users
  amortize shard loads and Gram-cache kernel columns.
* :class:`~repro.service.http.RetrievalHTTPServer` — the repo's one
  stdlib ``asyncio`` HTTP/1.1 server (:mod:`repro.obs.live`) running in
  a background thread, dispatching request handling to a worker thread
  pool.

``repro serve`` (the CLI) wires the two together.
"""

from repro.service.core import RetrievalService
from repro.service.http import RetrievalHTTPServer

__all__ = ["RetrievalService", "RetrievalHTTPServer"]
