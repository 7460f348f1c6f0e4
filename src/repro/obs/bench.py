"""The ``repro-bench-v1`` schema of ``BENCH_obs.json``.

The telemetry overhead benchmark (``benchmarks/test_perf_obs.py``)
records its numbers as telemetry gauges/counters and merges them here,
one section per measurement::

    {
      "<section>": {
        "schema": "repro-bench-v1",
        "meta": {...free-form context...},
        "metrics": {"bench.cold_total_s": 4.21,
                    "bench.cold_s{window=2}": 1.07, ...}
      }
    }

``metrics`` is a flat name->number map — histograms contribute
``<name>.count`` / ``<name>.sum`` / ``<name>.mean`` entries — because
benchmark diffs should be greppable without a parser.  Speed is
measured end to end by ``perfbench/``, which does not write through
this module.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["BENCH_SCHEMA", "flatten_metrics", "merge_bench"]

BENCH_SCHEMA = "repro-bench-v1"


def _series_suffix(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}"
                          for k, v in sorted(labels.items())) + "}"


def flatten_metrics(telemetry) -> dict[str, float]:
    """Flatten a registry's sampled series to ``name{labels} -> number``."""
    flat: dict[str, float] = {}
    for snap in telemetry.metrics_snapshot():
        for series in snap["series"]:
            key = snap["name"] + _series_suffix(series.get("labels", {}))
            if snap["kind"] == "histogram":
                flat[key + ".count"] = series["count"]
                flat[key + ".sum"] = round(series["sum"], 6)
                if series["count"]:
                    flat[key + ".mean"] = round(series["mean"], 6)
            else:
                flat[key] = round(series["value"], 6)
    return flat


def merge_bench(path: str | Path, section: str, telemetry,
                meta: dict | None = None) -> dict:
    """Write one benchmark section (read-modify-write, other sections
    kept) and return the full document."""
    path = Path(path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = {}
    data[section] = {
        "schema": BENCH_SCHEMA,
        "meta": dict(meta or {}),
        "metrics": flatten_metrics(telemetry),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data
