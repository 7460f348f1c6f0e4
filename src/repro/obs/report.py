"""Per-run reports: summarize a telemetry registry, render it for humans.

:func:`run_summary` reduces a live :class:`~repro.obs.Telemetry` to a
JSON-ready dict — the payload the CLI persists into the ``run_metrics``
table — and :func:`render_run_report` turns that dict (fresh or loaded
back from the database) into the text ``repro stats`` prints:

* the slowest spans (where the wall clock went),
* cache economics (artifact-store hit rates, Gram-column reuse,
  integrity recoveries, quarantines),
* the failure taxonomy (retries/timeouts/pool restarts by reason,
  spans that raised, warning events).
"""

from __future__ import annotations

from repro.obs.metrics import quantile_from_snapshot
from repro.obs.slo import evaluate_slos_from_summary, render_slos

__all__ = ["run_summary", "render_run_report", "SUMMARY_SCHEMA"]

SUMMARY_SCHEMA = "repro-run-summary-v1"

_TOP_SPANS = 10


def run_summary(telemetry) -> dict:
    """Reduce a registry to the persistable per-run summary dict."""
    spans = list(telemetry.spans)
    slowest = sorted(spans, key=lambda s: s.wall_ms,
                     reverse=True)[:_TOP_SPANS]
    error_spans = [s for s in spans if s.status == "error"]
    metrics = [snap for snap in telemetry.metrics_snapshot()
               if snap["series"]]
    return {
        "schema": SUMMARY_SCHEMA,
        "spans": {
            "count": len(spans) + telemetry.spans_dropped,
            "dropped": telemetry.spans_dropped,
            "total_wall_ms": round(sum(
                s.wall_ms for s in spans if s.parent_id is None), 3),
            "slowest": [
                {"name": s.name, "attrs": dict(s.attrs),
                 "wall_ms": round(s.wall_ms, 3),
                 "cpu_ms": round(s.cpu_ms, 3), "status": s.status}
                for s in slowest
            ],
            "errors": [
                {"name": s.name, "attrs": dict(s.attrs),
                 "error_type": s.error_type, "error": s.error}
                for s in error_spans
            ],
        },
        "metrics": metrics,
        "warnings": [e for e in telemetry.events
                     if e.get("level") == "warning"],
    }


def _series_map(summary: dict, name: str) -> list[dict]:
    for snap in summary.get("metrics", ()):
        if snap.get("name") == name:
            return snap.get("series", [])
    return []


def _total(summary: dict, name: str) -> float:
    return sum(s.get("value", 0.0) for s in _series_map(summary, name))


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) \
        + "}"


def _ratio_line(label: str, hit: float, miss: float) -> str:
    total = hit + miss
    rate = f"{hit / total:6.1%}" if total else "   n/a"
    return f"  {label:<28} {int(hit):>8} / {int(total):<8} ({rate})"


def render_run_report(summary: dict) -> str:
    """Render one run's summary dict as the ``repro stats`` report."""
    lines: list[str] = []
    spans = summary.get("spans", {})
    lines.append("== run report ==")
    lines.append(
        f"spans: {spans.get('count', 0)} recorded"
        + (f" ({spans.get('dropped')} dropped)" if spans.get("dropped")
           else "")
        + f", top-level wall {spans.get('total_wall_ms', 0.0):.0f} ms")

    slowest = spans.get("slowest", [])
    if slowest:
        lines.append("")
        lines.append("-- slowest spans --")
        for s in slowest:
            flag = "" if s.get("status") == "ok" else "  [ERROR]"
            lines.append(
                f"  {s['wall_ms']:>10.1f} ms  (cpu {s['cpu_ms']:.1f} ms)"
                f"  {s['name']}{_fmt_labels(s.get('attrs', {}))}{flag}")

    lines.append("")
    lines.append("-- cache economics --")
    hits = _series_map(summary, "pipeline.stage.cache_hit")
    misses = _series_map(summary, "pipeline.stage.cache_miss")
    by_stage: dict[str, list[float]] = {}
    for s in hits:
        stage = s.get("labels", {}).get("stage", "?")
        by_stage.setdefault(stage, [0.0, 0.0])[0] += s.get("value", 0.0)
    for s in misses:
        stage = s.get("labels", {}).get("stage", "?")
        by_stage.setdefault(stage, [0.0, 0.0])[1] += s.get("value", 0.0)
    if by_stage:
        for stage in sorted(by_stage):
            hit, miss = by_stage[stage]
            lines.append(_ratio_line(f"stage {stage} hits", hit, miss))
    else:
        lines.append("  (no artifact-store traffic)")
    reused = _total(summary, "svm.gram.columns_reused")
    computed = _total(summary, "svm.gram.columns_computed")
    if reused or computed:
        lines.append(_ratio_line("gram columns reused", reused, computed))
    recoveries = _total(summary, "pipeline.integrity_recoveries")
    if recoveries:
        lines.append(f"  integrity recoveries         {int(recoveries):>8}")
    for s in _series_map(summary, "store.quarantined"):
        reason = s.get("labels", {}).get("reason", "?")
        lines.append(f"  quarantined[{reason}]"
                     f"{'':<{max(1, 15 - len(reason))}}"
                     f"{int(s.get('value', 0)):>8}")

    lines.append("")
    lines.append("-- failure taxonomy --")
    rows = []
    for name, label_key in (("reliability.task.retries", "reason"),
                            ("reliability.task.failures", "reason")):
        for s in _series_map(summary, name):
            reason = s.get("labels", {}).get(label_key, "?")
            rows.append(f"  {name.rsplit('.', 1)[-1]}[{reason}]: "
                        f"{int(s.get('value', 0))}")
    timeouts = _total(summary, "reliability.task.timeouts")
    restarts = _total(summary, "reliability.pool.restarts")
    if timeouts:
        rows.append(f"  timeouts: {int(timeouts)}")
    if restarts:
        rows.append(f"  pool restarts: {int(restarts)}")
    for e in spans.get("errors", []):
        rows.append(f"  span {e['name']} raised {e['error_type']}: "
                    f"{e['error']}")
    for w in summary.get("warnings", []):
        detail = {k: v for k, v in w.items()
                  if k not in ("type", "name", "level", "pid", "ts")}
        rows.append(f"  warning {w.get('name')}: {detail}")
    if rows:
        lines.extend(rows)
    else:
        lines.append("  (clean run: no retries, timeouts, errors, or "
                     "quarantines)")

    # Round-latency economics, when the run had feedback/query rounds.
    # Quantiles are bucket-interpolated from the merged histogram
    # snapshot — the same math the SLO layer applies live.
    for title, name in (("relevance feedback", "rf.round.latency_ms"),
                        ("query rounds", "query.round.latency_ms")):
        stats = _latency_stats(summary, name)
        if stats:
            lines.append("")
            lines.append(f"-- {title} --")
            lines.append(
                f"  rounds: {stats['count']}, mean {stats['mean']:.1f} ms"
                f", p50 {stats['p50']:.1f} / p95 {stats['p95']:.1f}"
                f" / p99 {stats['p99']:.1f} ms")

    slo_statuses = evaluate_slos_from_summary(summary)
    if any(st.samples for st in slo_statuses):
        lines.append("")
        lines.append("-- service-level objectives --")
        lines.extend(render_slos(slo_statuses).splitlines()[1:])
    return "\n".join(lines)


def _latency_stats(summary: dict, name: str) -> dict | None:
    """count/mean/p50/p95/p99 from one histogram family's snapshot."""
    series = _series_map(summary, name)
    buckets: dict[str, int] = {}
    count, total = 0, 0.0
    for s in series:
        count += int(s.get("count") or 0)
        total += float(s.get("sum") or 0.0)
        for k, v in (s.get("buckets") or {}).items():
            buckets[k] = buckets.get(k, 0) + int(v)
    if not count:
        return None
    merged = {"buckets": buckets, "count": count}
    return {
        "count": count,
        "mean": total / count,
        "p50": quantile_from_snapshot(merged, 0.5),
        "p95": quantile_from_snapshot(merged, 0.95),
        "p99": quantile_from_snapshot(merged, 0.99),
    }
