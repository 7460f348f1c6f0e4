"""Unified telemetry for the retrieval system (zero dependencies).

The cross-cutting observability layer the performance PRs cite numbers
from: hierarchical **spans** around the pipeline/retrieval/reliability
hot paths, typed **metrics** (Counter / Gauge / Histogram with bounded
label sets), discrete warning **events**, and pluggable **exporters**
(always-on in-memory registry, JSONL trace files that survive process
pools, Prometheus text dumps).  ``repro.obs.report`` reduces a run to
the summary ``repro stats`` renders and ``repro.db`` persists.

Instrumented code talks to the module-level default registry::

    from repro.obs import get_telemetry

    t = get_telemetry()
    with t.span("segment", clip=clip_id):
        ...
    t.counter("pipeline.stage.cache_hit").inc(stage="segment")

Tests and benchmarks isolate themselves with :func:`set_telemetry` (or
``configure(enabled=False)`` to measure the uninstrumented baseline).
The registry is fork-inherited: ProcessPool workers record into their
own per-pid JSONL sidecars, merged into the parent trace on join.
"""

from repro.obs.bench import BENCH_SCHEMA, flatten_metrics, merge_bench
from repro.obs.context import (
    ContextTask,
    QueryContext,
    carry_context,
    current_attrs,
    current_context,
    new_query_id,
    query_context,
)
from repro.obs.explain import (
    build_span_tree,
    load_trace_spans,
    merge_span_events,
    render_round,
    render_session_listing,
    render_span_tree,
)
from repro.obs.exporters import (
    TraceWriter,
    merge_worker_traces,
    prometheus_text,
    write_prometheus,
)
from repro.obs.live import (
    LiveMetricsServer,
    render_healthz,
    render_metrics,
)
from repro.obs.metrics import (
    MAX_LABEL_SETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    bucket_quantile,
    quantile_from_snapshot,
)
from repro.obs.profile import RoundProfile, TailProfiler
from repro.obs.registry import DEFAULT_METRICS, Telemetry
from repro.obs.report import SUMMARY_SCHEMA, render_run_report, run_summary
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLObjective,
    SLOStatus,
    evaluate_slos,
    evaluate_slos_from_summary,
    render_slos,
)
from repro.obs.spans import Span

__all__ = [
    "Telemetry",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MAX_LABEL_SETS",
    "DEFAULT_METRICS",
    "TraceWriter",
    "merge_worker_traces",
    "prometheus_text",
    "write_prometheus",
    "run_summary",
    "render_run_report",
    "SUMMARY_SCHEMA",
    "BENCH_SCHEMA",
    "flatten_metrics",
    "merge_bench",
    "bucket_quantile",
    "quantile_from_snapshot",
    "QueryContext",
    "query_context",
    "current_context",
    "current_attrs",
    "new_query_id",
    "carry_context",
    "ContextTask",
    "TailProfiler",
    "RoundProfile",
    "LiveMetricsServer",
    "render_metrics",
    "render_healthz",
    "build_span_tree",
    "render_span_tree",
    "render_round",
    "render_session_listing",
    "load_trace_spans",
    "merge_span_events",
    "SLObjective",
    "SLOStatus",
    "DEFAULT_SLOS",
    "evaluate_slos",
    "evaluate_slos_from_summary",
    "render_slos",
    "get_telemetry",
    "set_telemetry",
    "configure",
]

_default = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide registry the instrumentation layer records into."""
    return _default


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Swap the process-wide registry (returns the previous one)."""
    global _default
    previous, _default = _default, telemetry
    return previous


def configure(*, enabled: bool | None = None, trace_path=None) -> Telemetry:
    """Configure the process-wide registry in place (see
    :meth:`Telemetry.configure`)."""
    return _default.configure(enabled=enabled, trace_path=trace_path)
