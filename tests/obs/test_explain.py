"""Offline span-tree reconstruction and round rendering."""

import json

from repro.obs import (
    build_span_tree,
    load_trace_spans,
    merge_span_events,
    render_round,
    render_session_listing,
    render_span_tree,
)


def _span(name, span_id, parent_id=None, *, pid=100, wall_ms=1.0,
          started_at=0.0, status="ok", attrs=None, **extra):
    record = {"type": "span", "name": name, "span_id": span_id,
              "parent_id": parent_id, "pid": pid, "wall_ms": wall_ms,
              "cpu_ms": wall_ms, "started_at": started_at,
              "status": status}
    if attrs:
        record["attrs"] = attrs
    record.update(extra)
    return record


class TestBuildSpanTree:
    def test_nests_children_under_parents(self):
        events = [
            _span("root", "a-1", started_at=0.0),
            _span("child", "a-2", "a-1", started_at=1.0),
            _span("grandchild", "a-3", "a-2", started_at=2.0),
        ]
        roots = build_span_tree(events)
        assert len(roots) == 1
        assert roots[0]["event"]["name"] == "root"
        child = roots[0]["children"][0]
        assert child["event"]["name"] == "child"
        assert child["children"][0]["event"]["name"] == "grandchild"

    def test_orphan_parent_becomes_root(self):
        events = [_span("orphan", "a-2", "a-99")]
        roots = build_span_tree(events)
        assert [r["event"]["name"] for r in roots] == ["orphan"]

    def test_siblings_ordered_by_start_time(self):
        events = [
            _span("root", "a-1", started_at=0.0),
            _span("late", "a-3", "a-1", started_at=5.0),
            _span("early", "a-2", "a-1", started_at=1.0),
        ]
        roots = build_span_tree(events)
        names = [c["event"]["name"] for c in roots[0]["children"]]
        assert names == ["early", "late"]


class TestMergeSpanEvents:
    def test_dedup_by_pid_and_span_id(self):
        a = _span("x", "a-1", pid=100)
        merged = merge_span_events([a], [dict(a)], [_span("x", "a-1",
                                                          pid=200)])
        assert len(merged) == 2  # same id, different pid = distinct

    def test_cross_pid_spans_marked_in_render(self):
        events = [
            _span("parent", "a-1", pid=100, started_at=0.0, wall_ms=10.0),
            _span("worker", "b-1", "a-1", pid=200, started_at=1.0,
                  wall_ms=4.0),
        ]
        text = render_span_tree(events, total_ms=10.0)
        assert "[pid 200]" in text
        assert "parent" in text.splitlines()[0]


class TestRenderSpanTree:
    def test_percentages_against_total(self):
        events = [_span("root", "a-1", wall_ms=5.0)]
        text = render_span_tree(events, total_ms=10.0)
        assert "50.0%" in text

    def test_error_span_marked(self):
        events = [_span("boom", "a-1", status="error",
                        error_type="OSError")]
        assert "!ERROR OSError" in render_span_tree(events)

    def test_context_attrs_suppressed_per_line(self):
        events = [_span("x", "a-1",
                        attrs={"query_id": "q", "clip": "tunnel"})]
        text = render_span_tree(events)
        assert "clip=tunnel" in text
        assert "query_id" not in text

    def test_empty(self):
        assert "no spans" in render_span_tree([])


class TestLoadTraceSpans:
    def test_filters_by_query_id_and_skips_torn_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            json.dumps(_span("mine", "a-1", attrs={"query_id": "q1"})),
            json.dumps(_span("other", "a-2", attrs={"query_id": "q2"})),
            json.dumps({"type": "event", "name": "not-a-span"}),
            '{"torn": tru',  # crashed writer tail
        ]
        path.write_text("\n".join(lines) + "\n")
        spans = load_trace_spans(path, query_id="q1")
        assert [s["name"] for s in spans] == ["mine"]
        assert len(load_trace_spans(path)) == 2


class TestRenderRound:
    def _row(self, **overrides):
        row = {
            "round_index": 2, "op": "results", "latency_ms": 12.5,
            "created_at": "2026-08-08T00:00:00Z", "query_id": "qabc",
            "spans": [_span("query.round", "a-1", wall_ms=12.5)],
            "profile": "",
            "detail": {
                "nomination_recall": 0.9,
                "bags_scanned_fraction": 0.75,
                "cache": {"hit_rate": 0.5},
                "engine": {
                    "bags_total": 40, "bags_scored": 30,
                    "shards": [{"clip_id": "tunnel", "candidates": 15,
                                "n_bags": 20, "nomination_recall": 0.9,
                                "wall_ms": 3.0}],
                },
                "coverage": {"summary": "complete: 1 shard(s), 40 bags"},
            },
        }
        row.update(overrides)
        return row

    def test_quality_line_and_shards(self):
        text = render_round(self._row())
        assert "round 2 · results · 12.5 ms" in text
        assert "nomination recall 0.900" in text
        assert "bags scored 30/40 (75.0% scanned)" in text
        assert "gram cache hit-rate 50.0%" in text
        assert "coverage: complete: 1 shard(s), 40 bags" in text
        assert "shard tunnel: 15/20 candidates, recall 0.900" in text

    def test_fits_on_the_quality_line(self):
        row = self._row()
        assert "fit memo" not in render_round(row)
        row["detail"]["fits"] = {"count": 2, "memo_hits": 1}
        assert "fits 2 (1 from the fit memo)" in render_round(row)

    def test_profile_excerpt(self):
        stacks = "\n".join(f"main (a.py:1);f{i} (b.py:{i}) {i}"
                           for i in range(8))
        text = render_round(self._row(profile=stacks))
        assert "tail profile captured — 8 distinct stack(s)" in text
        assert "... 3 more" in text

    def test_extra_spans_merged_into_tree(self):
        extra = [_span("worker.load", "b-1", "a-1", pid=999, wall_ms=2.0)]
        text = render_round(self._row(), extra_spans=extra)
        assert "worker.load" in text
        assert "[pid 999]" in text


class TestSessionListing:
    def test_empty(self):
        assert "no ledgered query rounds" in render_session_listing([])

    def test_rows(self):
        text = render_session_listing([
            {"session_id": "u:c:e", "query_id": "q1", "rounds": 3,
             "last_round": 2, "last_at": "2026-08-08T00:00:00Z"}])
        assert "u:c:e" in text
        assert "rounds=3" in text
