"""The telemetry registry: spans, metrics, events, and exporters.

One :class:`Telemetry` object owns everything the instrumentation layer
records: the per-thread span stack, the metric families, a bounded
buffer of finished spans, warning/info events, and an optional JSONL
:class:`~repro.obs.exporters.TraceWriter`.  The module-level default
instance (see :mod:`repro.obs`) is what the hot paths talk to; tests and
benchmarks swap in a fresh instance or disable it wholesale.

Design constraints, in order:

* **Cheap when idle.**  With ``enabled=False`` every operation is a
  couple of attribute checks — the <3% overhead budget on the vision
  pipeline (``BENCH_obs.json``) is enforced by benchmark.
* **Zero dependencies.**  Standard library only; importable from any
  layer without cycles (only :mod:`repro.errors` is touched).
* **Fork-safe.**  A worker process inherits the registry; its spans and
  trace lines stay process-local (per-worker JSONL sidecars merged on
  join), so parent counters are never silently half-updated.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.context import current_attrs
from repro.obs.exporters import TraceWriter, merge_worker_traces
from repro.obs.metrics import Counter, Gauge, Histogram, Metric
from repro.obs.spans import Span

__all__ = ["Telemetry", "DEFAULT_METRICS"]

#: The system's core metric surface, declared up front so exporters
#: always name the full schema even for families with no samples yet.
#: ``(kind, name, help)`` — labels are free-form at call sites.
DEFAULT_METRICS: tuple[tuple[str, str, str], ...] = (
    ("counter", "pipeline.stage.cache_hit",
     "stage artifacts replayed from the artifact store, by stage"),
    ("counter", "pipeline.stage.cache_miss",
     "stage executions that could not be served from the store, by stage"),
    ("counter", "pipeline.integrity_recoveries",
     "resume loads demoted to a full recompute by a failed verification"),
    ("counter", "store.quarantined",
     "artifact blobs moved to quarantine/, by failure reason"),
    ("counter", "svm.gram.columns_reused",
     "kernel columns served from the GramCache across RF rounds"),
    ("counter", "svm.gram.columns_computed",
     "kernel columns evaluated because the GramCache missed"),
    ("histogram", "svm.solver.iterations",
     "SMO solver iterations per one-class fit, by learner"),
    ("histogram", "rf.round.latency_ms",
     "wall-clock latency of one relevance-feedback round"),
    ("gauge", "rf.round.ranking_size",
     "bags returned to the user in the latest feedback round"),
    ("histogram", "sharded.shard.candidates",
     "candidate bags nominated per shard per ranking round"),
    ("histogram", "sharded.shard.score_span",
     "max-min spread of the exact candidate scores within one shard"),
    ("counter", "sharded.bags_scored",
     "bags scored exactly (SVM or heuristic fallback) across all shards"),
    ("counter", "sharded.bags_pruned",
     "bags the heuristic prefilter kept out of exact scoring"),
    ("counter", "index.builds",
     "IVF indexes built (k-means cells over a shard's instance rows)"),
    ("counter", "index.cells_probed",
     "IVF cells gathered across all probe calls"),
    ("counter", "index.rows_gathered",
     "instance rows touched by IVF probes (the sublinear scan cost)"),
    ("counter", "index.bags_nominated",
     "bags nominated by IVF probes before the top-M cap"),
    ("gauge", "index.nomination_recall",
     "fraction of the heuristic top-M set the latest IVF probe kept"),
    ("counter", "index.stale_tail_routed",
     "un-indexed appended bags routed around a stale IVF index"),
    ("counter", "index.rebuilds",
     "IVF indexes re-clustered after the appended tail crossed the "
     "rebuild threshold"),
    ("counter", "ingest.segments",
     "clip segments pushed through the streaming pipeline, by outcome"),
    ("counter", "ingest.bags_emitted",
     "window bags emitted as final by the streaming frontier"),
    ("counter", "ingest.segments_appended",
     "segments whose bags were durably appended to the database"),
    ("counter", "ingest.segments_skipped",
     "already-durable segments skipped by an exactly-once resume"),
    ("gauge", "ingest.lag_frames",
     "frames processed but not yet queryable (behind the stable "
     "frontier)"),
    ("gauge", "ingest.segments_per_sec",
     "streaming ingest throughput over the current clip"),
    ("counter", "sharded.bags_appended",
     "bags absorbed in place by live corpus shards, by clip"),
    ("counter", "sharded.corpus_syncs",
     "engine rounds dropped (and models retrained) after a live corpus "
     "mutation"),
    ("counter", "sharded.fit_memo_hits",
     "engine fits served by the corpus' per-epoch fit memo, without a "
     "solve"),
    ("counter", "reliability.task.retries",
     "task attempts re-submitted after a transient failure, by reason"),
    ("counter", "reliability.task.timeouts",
     "tasks abandoned for exceeding their wall-clock budget"),
    ("counter", "reliability.task.failures",
     "tasks that exhausted retries, by error type"),
    ("counter", "reliability.pool.restarts",
     "process pools rebuilt after a BrokenExecutor"),
    ("histogram", "reliability.retry.backoff_ms",
     "total backoff slept per RetryPolicy.run call"),
    ("counter", "sharded.shard_failures",
     "shard loads/refreshes that failed and entered quarantine, by clip"),
    ("counter", "sharded.shard_recoveries",
     "quarantined shards that rejoined after a successful reprobe"),
    ("counter", "sharded.degraded_rounds",
     "ranking rounds served with >= 1 shard skipped (degraded policy)"),
    ("gauge", "sharded.quarantined_shards",
     "corpus shards currently quarantined by the backoff schedule"),
    ("counter", "ingest.segments_retried",
     "segments re-processed because their last journal state was "
     "'failed'"),
    ("counter", "faults.injected",
     "chaos-layer faults fired, by operation seam and fault kind"),
    ("counter", "sim.projection_clipped",
     "simulated track points dropped at the camera horizon during "
     "rendering"),
    ("counter", "store.tmp_unlink_failures",
     "atomic-write temp files that could not be cleaned up, by store"),
    ("histogram", "query.round.latency_ms",
     "wall-clock latency of one user-facing query-session round"),
    ("gauge", "query.coverage_fraction",
     "fraction of corpus bags actually covered by the latest round"),
    ("counter", "query.ledger_rounds",
     "per-round quality-ledger rows persisted, by operation"),
    ("counter", "obs.profiles.captured",
     "tail-latency profiles kept because the round beat the threshold"),
    ("counter", "obs.profiles.discarded",
     "armed round profiles dropped because the round was fast enough"),
    ("counter", "obs.live.requests",
     "HTTP requests served by the live metrics endpoint, by path"),
    ("counter", "obs.live.client_disconnects",
     "responses abandoned because the client hung up mid-write"),
    ("counter", "query.session_conflicts",
     "feedback rounds rejected by the optimistic session-round guard"),
    ("counter", "sharded.corpus_pool_hits",
     "sessions that opened a corpus already open on their catalog "
     "(shared, not built)"),
    ("counter", "service.requests",
     "retrieval-service HTTP requests handled, by route and status"),
    ("histogram", "service.request.latency_ms",
     "wall-clock latency of one retrieval-service request, by route"),
    ("gauge", "service.sessions_active",
     "relevance-feedback sessions currently resident in this worker"),
    ("counter", "service.session_resumes",
     "sessions reconstructed from the catalog by a worker that did "
     "not create them"),
    ("gauge", "slo.attainment",
     "latest measured value per declared objective"),
    ("gauge", "slo.burn_rate",
     "error-budget burn rate per declared objective (1.0 = on budget)"),
    ("counter", "slo.breaches",
     "objective evaluations that found the SLO unmet, by objective"),
)


class Telemetry:
    """Span + metric + event registry with pluggable exporters.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled, ``span()`` yields ``None`` and metric
        lookups return inert no-op instruments.
    wall_clock / cpu_clock:
        Injectable monotonic clocks (tests fake time through these).
    max_spans:
        Bound on the finished-span buffer; the oldest spans are dropped
        beyond it (``spans_dropped`` counts them) so a long-lived
        process can't leak memory through its own telemetry.
    """

    def __init__(self, *, enabled: bool = True,
                 wall_clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time,
                 max_spans: int = 20_000) -> None:
        self.enabled = bool(enabled)
        self.wall_clock = wall_clock
        self.cpu_clock = cpu_clock
        self.max_spans = int(max_spans)
        self.spans: list[Span] = []
        self.spans_dropped = 0
        self.events: list[dict] = []
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.writer: TraceWriter | None = None
        for kind, name, help in DEFAULT_METRICS:
            self._declare(kind, name, help)

    # ------------------------------------------------------------ config
    def configure(self, *, enabled: bool | None = None,
                  trace_path=None) -> "Telemetry":
        """Adjust the master switch and/or attach a JSONL trace writer."""
        if enabled is not None:
            self.enabled = bool(enabled)
        if trace_path is not None:
            if self.writer is not None:
                self.writer.close()
            self.writer = TraceWriter(trace_path)
        return self

    def reset(self) -> None:
        """Drop all recorded state; keep configuration and declarations."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None
        self.spans.clear()
        self.events.clear()
        self.spans_dropped = 0
        self._next_id = 0
        declared = [(m.kind, m.name, m.help)
                    for m in self._metrics.values()]
        self._metrics.clear()
        for kind, name, help in declared:
            self._declare(kind, name, help)

    # ----------------------------------------------------------- metrics
    def _declare(self, kind: str, name: str, help: str = "") -> Metric:
        cls = {"counter": Counter, "gauge": Gauge,
               "histogram": Histogram}[kind]
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def _get(self, cls, name: str, help: str) -> Metric:
        try:
            metric = self._metrics[name]
        except KeyError:
            with self._lock:
                metric = self._metrics.setdefault(name, cls(name, help))
        if not isinstance(metric, cls):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(Histogram, name, help)

    def metric_families(self) -> list[Metric]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def metrics_snapshot(self) -> list[dict]:
        """JSON-ready snapshot of every family (declared or sampled)."""
        return [m.snapshot() for m in self.metric_families()]

    # ------------------------------------------------------------- spans
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{os.getpid():x}-{self._next_id:x}"

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span | None]:
        """Time a section; nested calls form the trace tree.

        Yields the live :class:`Span` (attach attributes via
        ``span.set(...)``) — or ``None`` when telemetry is disabled, so
        callers guard with ``if sp is not None`` before touching it.
        Exceptions mark the span ``status="error"`` and propagate.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        ctx = current_attrs()
        sp = Span(
            name=name,
            span_id=self._new_span_id(),
            parent_id=stack[-1].span_id if stack else None,
            attrs={**ctx, **attrs} if ctx else dict(attrs),
            started_at=time.time(),
        )
        stack.append(sp)
        wall0, cpu0 = self.wall_clock(), self.cpu_clock()
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.error_type = type(exc).__name__
            sp.error = str(exc)
            raise
        finally:
            sp.wall_ms = (self.wall_clock() - wall0) * 1000.0
            sp.cpu_ms = (self.cpu_clock() - cpu0) * 1000.0
            if stack and stack[-1] is sp:
                stack.pop()
            self._record_span(sp)

    def _record_span(self, sp: Span) -> None:
        self.spans.append(sp)
        if len(self.spans) > self.max_spans:
            del self.spans[0]
            self.spans_dropped += 1
        if self.writer is not None:
            self.writer.write(sp.to_event())

    # ------------------------------------------------------------ events
    def event(self, name: str, *, level: str = "info", **attrs) -> None:
        """Record a discrete occurrence (e.g. a quarantined blob)."""
        if not self.enabled:
            return
        record = {"type": "event", "name": name, "level": level,
                  "pid": os.getpid(), "ts": round(time.time(), 6)}
        record.update(current_attrs())
        record.update({k: v if isinstance(v, (str, int, float, bool))
                       or v is None else repr(v)
                       for k, v in attrs.items()})
        self.events.append(record)
        if len(self.events) > self.max_spans:
            del self.events[0]
        if self.writer is not None:
            self.writer.write(record)

    # --------------------------------------------------------- exporters
    def flush(self) -> None:
        """Write one ``metric`` trace event per family with samples."""
        if self.writer is None or not self.enabled:
            return
        for snap in self.metrics_snapshot():
            if snap["series"]:
                self.writer.write(dict(snap, type="metric"))

    def merge_worker_traces(self) -> int:
        """Fold per-worker JSONL sidecars into the main trace file."""
        if self.writer is None:
            return 0
        return merge_worker_traces(self.writer.path)


class _NullMetric:
    """Inert instrument returned while telemetry is disabled."""

    def inc(self, amount=1.0, **labels) -> None:
        pass

    def set(self, value, **labels) -> None:
        pass

    def observe(self, value, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def quantile(self, q, **labels) -> float:
        return float("nan")


_NULL_COUNTER = _NullMetric()
_NULL_GAUGE = _NullMetric()
_NULL_HISTOGRAM = _NullMetric()
