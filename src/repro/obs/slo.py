"""Service-level objectives evaluated from the in-process metrics.

An objective is a declared, checkable promise about the interactive
loop — "p99 round latency under 500 ms", "at least 95% corpus coverage",
"ingest lag under 500 frames" — evaluated from a snapshot of the
metric registry, taken live or persisted in a run summary: latency
quantiles are bucket-interpolated from histogram counts
(:func:`~repro.obs.metrics.bucket_quantile`), coverage and freshness
read gauges.  Live evaluation also feeds the registry back:
``slo.attainment`` / ``slo.burn_rate`` gauges and an ``slo.breaches``
counter per objective, so the live ``/metrics`` endpoint exposes SLO
health without a separate pipeline.

Burn rate follows the error-budget convention: for a quantile objective
with target quantile ``q`` the budget is the ``1 - q`` fraction of
observations allowed over the threshold, and burn rate is the measured
bad fraction divided by that budget (1.0 = spending exactly on budget,
>1.0 = burning faster than the SLO allows).  Threshold objectives on
gauges burn 0 when met and ``measured/threshold`` (or its inverse)
when violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.metrics import bucket_quantile

__all__ = ["SLObjective", "SLOStatus", "DEFAULT_SLOS", "evaluate_slos",
           "evaluate_slos_from_summary", "render_slos"]

_KINDS = ("quantile_below", "gauge_at_least", "gauge_at_most")


@dataclass(frozen=True)
class SLObjective:
    """One declared objective against one metric family.

    ``kind`` selects the evaluation rule: ``quantile_below`` checks the
    bucket-interpolated ``quantile`` of a histogram against
    ``threshold``; ``gauge_at_least`` / ``gauge_at_most`` compare the
    unlabelled series of a gauge.
    """

    name: str
    metric: str
    kind: str
    threshold: float
    quantile: float = 0.99
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown SLO kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "quantile_below" and not 0.0 < self.quantile < 1.0:
            raise ConfigurationError(
                f"SLO quantile must be in (0, 1), got {self.quantile}")


@dataclass(frozen=True)
class SLOStatus:
    """Outcome of evaluating one objective at one instant."""

    objective: SLObjective
    measured: float
    met: bool
    samples: int
    burn_rate: float

    @property
    def name(self) -> str:
        return self.objective.name


#: The interactive loop's core promises: the objectives every evaluation
#: judges.
DEFAULT_SLOS: tuple[SLObjective, ...] = (
    SLObjective(
        name="round-latency-p99",
        metric="query.round.latency_ms",
        kind="quantile_below",
        threshold=500.0,
        quantile=0.99,
        description="99% of query-session rounds complete within 500 ms"),
    SLObjective(
        name="coverage-fraction",
        metric="query.coverage_fraction",
        kind="gauge_at_least",
        threshold=0.95,
        description="the latest round covered >= 95% of corpus bags"),
    SLObjective(
        name="ingest-freshness",
        metric="ingest.lag_frames",
        kind="gauge_at_most",
        threshold=500.0,
        description="streaming ingest stays within 500 frames of "
                    "queryable"),
)


def _bad_over_threshold(bounds, cumulative, total: int,
                        threshold: float) -> float:
    """Estimate observations over ``threshold`` by interpolating the
    cumulative count at it — same linear model as the quantile itself,
    so the two agree."""
    below = 0.0
    prev_bound, prev_cum = 0.0, 0
    for bound, cum in zip(bounds, cumulative):
        if threshold <= bound:
            width = bound - prev_bound
            frac = ((threshold - prev_bound) / width) if width else 1.0
            below = prev_cum + (cum - prev_cum) * frac
            break
        prev_bound, prev_cum = bound, cum
    else:
        below = float(cumulative[-1]) if cumulative else 0.0
    return max(0.0, total - below)


def _judge(slo: SLObjective, measured: float, samples: int,
           bad: float) -> SLOStatus:
    """Apply one objective's rule to its measured value."""
    if samples == 0 or math.isnan(measured):
        return SLOStatus(slo, math.nan, True, 0, 0.0)
    if slo.kind == "quantile_below":
        met = measured <= slo.threshold
        budget = 1.0 - slo.quantile
        burn = (bad / samples) / budget if samples else 0.0
    elif slo.kind == "gauge_at_least":
        met = measured >= slo.threshold
        burn = 0.0 if met else (
            slo.threshold / measured if measured > 0 else math.inf)
    else:  # gauge_at_most
        met = measured <= slo.threshold
        burn = 0.0 if met else (
            measured / slo.threshold if slo.threshold > 0 else math.inf)
    return SLOStatus(slo, measured, met, samples, burn)


def evaluate_slos(telemetry, *, record: bool = True) -> list[SLOStatus]:
    """Evaluate every objective against a live registry.

    The registry's snapshot is judged as a persisted summary would be
    (:func:`evaluate_slos_from_summary`).  With ``record=True`` (the
    default) attainment/burn gauges and the breach counter are updated
    so exporters publish SLO health.  Objectives whose metric has no
    samples yet evaluate as *met* with ``samples == 0`` — an idle system
    has not broken any promise.
    """
    statuses = evaluate_slos_from_summary(
        {"metrics": telemetry.metrics_snapshot()})
    if not (record and telemetry.enabled):
        return statuses
    for status in statuses:
        if not status.samples:
            continue
        telemetry.gauge("slo.attainment").set(
            status.measured, slo=status.name)
        telemetry.gauge("slo.burn_rate").set(
            status.burn_rate if math.isfinite(status.burn_rate)
            else -1.0, slo=status.name)
        if not status.met:
            telemetry.counter("slo.breaches").inc(slo=status.name)
    return statuses


def evaluate_slos_from_summary(summary: dict) -> list[SLOStatus]:
    """Evaluate objectives against a persisted run-summary dict.

    Works on the snapshot shape :func:`repro.obs.report.run_summary`
    persists (and ``repro stats`` loads back), so SLO attainment can be
    judged for historical runs without a live registry.
    """
    snaps = {snap.get("name"): snap for snap in summary.get("metrics", ())}
    statuses: list[SLOStatus] = []
    for slo in DEFAULT_SLOS:
        snap = snaps.get(slo.metric) or {}
        series = snap.get("series", [])
        measured, samples, bad = math.nan, 0, 0.0
        if slo.kind == "quantile_below":
            buckets: dict[str, int] = {}
            for s in series:
                samples += int(s.get("count") or 0)
                for k, v in (s.get("buckets") or {}).items():
                    buckets[k] = buckets.get(k, 0) + int(v)
            if samples:
                finite = sorted((float(k), int(v))
                                for k, v in buckets.items() if k != "+Inf")
                bounds = tuple(b for b, _ in finite)
                cumulative = tuple(c for _, c in finite)
                measured = bucket_quantile(bounds, cumulative, samples,
                                           slo.quantile)
                bad = _bad_over_threshold(bounds, cumulative, samples,
                                          slo.threshold)
        else:
            for s in series:
                if not s.get("labels"):
                    measured = float(s.get("value", math.nan))
                    samples = 1
                    break
        statuses.append(_judge(slo, measured, samples, bad))
    return statuses


def render_slos(statuses) -> str:
    """Human-readable one-line-per-objective report."""
    lines = ["service-level objectives:"]
    for st in statuses:
        slo = st.objective
        if st.samples == 0:
            lines.append(f"  -    {slo.name:<20s} no samples yet")
            continue
        mark = "ok  " if st.met else "MISS"
        detail = {
            "quantile_below":
                f"p{int(slo.quantile * 100)}={st.measured:.1f} "
                f"(<= {slo.threshold:g}), burn {st.burn_rate:.2f}x",
            "gauge_at_least":
                f"{st.measured:.3f} (>= {slo.threshold:g})",
            "gauge_at_most":
                f"{st.measured:.1f} (<= {slo.threshold:g})",
        }[slo.kind]
        lines.append(f"  {mark} {slo.name:<20s} {detail}")
    return "\n".join(lines)
