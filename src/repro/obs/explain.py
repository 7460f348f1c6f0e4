"""Offline span-tree reconstruction: the engine behind ``repro explain``.

The quality ledger (:meth:`repro.db.VideoDatabase.record_query_round`)
stores each round's serialized span events; a JSONL trace adds the spans
worker processes recorded into their sidecars (same ``query_id``,
different pid).  This module folds both back into the tree the live
span stack built — ``span_id``/``parent_id`` are pid-prefixed, so
cross-process records never collide — and renders a flame-style
per-round breakdown: wall time, share of the round, nesting, and the
attrs that explain *why* (clip, candidates, nprobe, ...).

Everything here is pure data → text, no registry access, so the CLI can
explain a database from a process that never ran a query.
"""

from __future__ import annotations

import json

__all__ = ["build_span_tree", "render_span_tree", "render_round",
           "render_session_listing", "load_trace_spans", "merge_span_events"]

#: Context attrs stamped on every span of a round — noise when the
#: whole tree shares them, so the renderer drops them per line.
_CONTEXT_ATTRS = ("query_id", "session_id", "query_round")


def load_trace_spans(path, query_id: str | None = None) -> list[dict]:
    """Span events from a JSONL trace, optionally one query's only.

    Torn or non-JSON lines are skipped (the merge tool already drops
    them, but an explain over a live trace must not crash on the tail).
    """
    spans: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or record.get("type") != "span":
                continue
            if query_id is not None and \
                    record.get("attrs", {}).get("query_id") != query_id:
                continue
            spans.append(record)
    return spans


def merge_span_events(*groups) -> list[dict]:
    """Union span-event lists, deduplicated by ``(pid, span_id)``."""
    seen: set = set()
    merged: list[dict] = []
    for group in groups:
        for event in group:
            key = (event.get("pid"), event.get("span_id"))
            if key in seen:
                continue
            seen.add(key)
            merged.append(event)
    return merged


def build_span_tree(events) -> list[dict]:
    """Nest span events into ``{"event", "children"}`` nodes.

    A span whose parent is not in ``events`` (e.g. the enclosing CLI
    span was not harvested) becomes a root.  Siblings are ordered by
    start time, so the tree reads in execution order.
    """
    nodes = {e["span_id"]: {"event": e, "children": []} for e in events}
    roots: list[dict] = []
    for event in events:
        node = nodes[event["span_id"]]
        parent = nodes.get(event.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def order(items):
        items.sort(key=lambda n: n["event"].get("started_at", 0.0))
        for item in items:
            order(item["children"])
    order(roots)
    return roots


def _attr_text(event: dict) -> str:
    attrs = {k: v for k, v in event.get("attrs", {}).items()
             if k not in _CONTEXT_ATTRS}
    if not attrs:
        return ""
    return " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def render_span_tree(events, *, total_ms: float | None = None) -> str:
    """Flame-style indented rendering of one round's spans."""
    roots = build_span_tree(events)
    if not roots:
        return "  (no spans recorded)"
    if total_ms is None:
        total_ms = sum(r["event"]["wall_ms"] for r in roots)
    root_pid = roots[0]["event"].get("pid")
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        event = node["event"]
        wall = event.get("wall_ms", 0.0)
        pct = (100.0 * wall / total_ms) if total_ms else 0.0
        marker = ""
        if event.get("pid") != root_pid:
            marker = f" [pid {event.get('pid')}]"
        if event.get("status") == "error":
            marker += f" !ERROR {event.get('error_type', '')}"
        lines.append(f"  {wall:9.2f} ms {pct:5.1f}%  "
                     f"{'  ' * depth}{event['name']}"
                     f"{_attr_text(event)}{marker}")
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def _percent(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def render_round(row: dict, *, extra_spans=()) -> str:
    """One quality-ledger row as a human-readable round report."""
    detail = row.get("detail") or {}
    lines = [
        f"round {row['round_index']} · {row['op']} · "
        f"{row['latency_ms']:.1f} ms · {row['created_at']} · "
        f"query {row['query_id']}"
    ]
    quality: list[str] = []
    recall = detail.get("nomination_recall")
    if recall is not None:
        quality.append(f"nomination recall {recall:.3f}")
    engine = detail.get("engine") or {}
    if engine.get("bags_total"):
        quality.append(
            f"bags scored {engine['bags_scored']}/{engine['bags_total']} "
            f"({_percent(detail.get('bags_scanned_fraction'))} scanned)")
    cache = detail.get("cache") or {}
    if cache.get("hit_rate") is not None:
        quality.append(f"gram cache hit-rate "
                       f"{_percent(cache['hit_rate'])}")
    fits = detail.get("fits")
    if fits:
        quality.append(f"fits {fits['count']} "
                       f"({fits['memo_hits']} from the fit memo)")
    if quality:
        lines.append("  " + " | ".join(quality))
    coverage = detail.get("coverage")
    if coverage:
        lines.append(f"  coverage: {coverage['summary']}")
    spans = merge_span_events(row.get("spans") or [], extra_spans)
    lines.append(render_span_tree(spans, total_ms=row["latency_ms"]))
    for shard in engine.get("shards", ()):
        recall_txt = ("n/a" if shard.get("nomination_recall") is None
                      else f"{shard['nomination_recall']:.3f}")
        wall = shard.get("wall_ms")
        wall_txt = "n/a" if wall is None else f"{wall:.2f} ms"
        lines.append(
            f"    shard {shard['clip_id']}: {shard['candidates']}"
            f"/{shard['n_bags']} candidates, recall {recall_txt}, "
            f"{wall_txt}")
    if row.get("profile"):
        stacks = row["profile"].splitlines()
        samples = detail.get("profile_wall_ms")
        suffix = f" ({samples:.1f} ms profiled)" if samples else ""
        lines.append(f"  tail profile captured — "
                     f"{len(stacks)} distinct stack(s){suffix}:")
        lines.extend(f"    {s}" for s in stacks[:5])
        if len(stacks) > 5:
            lines.append(f"    ... {len(stacks) - 5} more")
    return "\n".join(lines)


def render_session_listing(sessions) -> str:
    """The index ``repro explain`` prints when no session is named."""
    if not sessions:
        return ("(no ledgered query rounds; run 'repro query'/'repro "
                "label' against this database first)")
    lines = [f"{len(sessions)} ledgered session(s):"]
    for s in sessions:
        lines.append(
            f"  {s['session_id']}  query={s['query_id']}  "
            f"rounds={s['rounds']} (last round {s['last_round']} "
            f"at {s['last_at']})")
    return "\n".join(lines)
