"""PipelineRunner: compose stages, replay cached suffix-invalidated work.

The runner owns a stage chain built from a :class:`PipelineConfig` and an
optional :class:`ArtifactStore`.  For each clip it derives a *chain key*
per stage — SHA-256 over the clip digest plus the fingerprints of every
stage up to and including that one — and resumes execution after the
deepest stage whose artifact the store already holds.  Consequences:

* a sweep over a downstream knob (``window_size``, ``step``, sampling)
  re-runs only the suffix that depends on it; Render/Segment/Track
  happen once per clip per sweep;
* changing any upstream config changes every downstream chain key, so
  exactly the dependent suffix recomputes — there is no way to serve a
  stale artifact.

Without a store the runner simply executes every stage, which is the
historical ``build_artifacts`` behaviour.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import StorageError
from repro.obs import get_telemetry
from repro.pipeline.artifacts import ClipArtifacts
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage, StageContext, build_stages
from repro.pipeline.store import ArtifactStore, resolve_store
from repro.sim.ground_truth import GroundTruth
from repro.sim.world import SimulationResult

__all__ = ["PipelineRunner", "clip_digest"]


def clip_digest(result: SimulationResult) -> str:
    """Content digest of a simulated clip (identity of the raw footage).

    Covers the clip id, geometry, and every vehicle state, so two
    simulations agree on the digest iff they would render identical
    footage; the scenario seed is captured through the states it shaped.
    """
    h = hashlib.sha256()
    h.update(repr((result.name, result.n_frames, result.width,
                   result.height)).encode("utf-8"))
    for frame_states in result.states:
        for s in frame_states:
            h.update(np.array([s.vid, s.x, s.y, s.vx, s.vy],
                              dtype=np.float64).tobytes())
    return h.hexdigest()


class PipelineRunner:
    """Compose the stage chain and consult an artifact store between runs."""

    def __init__(self, config: PipelineConfig | None = None, *,
                 store: ArtifactStore | str | None = None) -> None:
        self.config = config or PipelineConfig()
        self.store = resolve_store(store)
        self.stages: list[Stage] = build_stages(self.config)
        #: cumulative per-stage cache hits across runs of this runner
        #: (the process-wide ``pipeline.stage.cache_hit{stage=}`` counter
        #: aggregates the same events across *all* runners)
        self.cache_hits: dict[str, int] = {s.name: 0 for s in self.stages}
        #: times a resume-load failed verification and the runner fell
        #: back to a full recompute (self-healing store in action);
        #: mirrored by the ``pipeline.integrity_recoveries`` counter
        self.integrity_recoveries: int = 0

    # ------------------------------------------------------------- keys
    def chain_keys(self, result: SimulationResult) -> list[str]:
        """One content address per stage: clip digest + fingerprint chain."""
        chain: list = [clip_digest(result)]
        keys = []
        for stage in self.stages:
            chain.append(stage.fingerprint())
            digest = hashlib.sha256(
                repr(tuple(chain)).encode("utf-8")).hexdigest()
            keys.append(digest)
        return keys

    # -------------------------------------------------------------- run
    def _resume_point(self, keys: list[str]) -> int:
        """Index of the first stage that must execute (0 = run everything).

        A stage may be skipped only if its own artifact is stored *and*
        every cacheable stage before it is stored too: the ``provides``
        outputs among them ship inside :class:`ClipArtifacts`, and
        requiring the full prefix means a store with a hole in it (a
        quarantined blob, an interrupted write) backfills the missing
        artifact on the next run instead of carrying the gap forever.
        """
        if self.store is None:
            return 0
        for i in range(len(self.stages) - 1, -1, -1):
            stage = self.stages[i]
            if not stage.cacheable or not self.store.has(keys[i]):
                continue
            prior = [
                j for j, s in enumerate(self.stages[:i]) if s.cacheable
            ]
            if all(self.store.has(keys[j]) for j in prior):
                return i + 1
        return 0

    def run(self, result: SimulationResult) -> ClipArtifacts:
        """Build one clip's artifacts, reusing stored stage outputs."""
        with get_telemetry().span("pipeline.run", clip=result.name,
                                  mode=self.config.mode):
            return self._run(result)

    def _run(self, result: SimulationResult) -> ClipArtifacts:
        obs = get_telemetry()
        ctx = StageContext(result)
        keys = self.chain_keys(result)
        outputs: dict[str, object] = {}
        stage_runs: dict[str, int] = {s.name: 0 for s in self.stages}

        start = self._resume_point(keys)
        value: object = result
        if start > 0:
            # Load the resume artifact and any exposed upstream outputs.
            # Loads verify checksums; a blob that fails verification is
            # quarantined by the store and surfaces as a StorageError,
            # which demotes the whole resume to a recompute — slower,
            # never wrong.  Hits are committed only on success so the
            # counters stay truthful across a demoted resume.
            loaded: dict[str, object] = {}
            hits: list[str] = []
            try:
                for j, stage in enumerate(self.stages[:start]):
                    if not stage.cacheable:
                        continue  # e.g. Render: skipped, not served
                    hits.append(stage.name)
                    if stage.provides is not None:
                        loaded[stage.provides] = self.store.load(keys[j])
                resumed = self.stages[start - 1]
                if resumed.provides is not None:
                    value = loaded[resumed.provides]
                else:
                    value = self.store.load(keys[start - 1])
            except StorageError:
                self.integrity_recoveries += 1
                obs.counter("pipeline.integrity_recoveries").inc()
                obs.event("pipeline.resume_demoted", level="warning",
                          clip=result.name,
                          stage=self.stages[start - 1].name)
                start, value = 0, result
            else:
                outputs.update(loaded)
                for name in hits:
                    self.cache_hits[name] += 1
                    obs.counter("pipeline.stage.cache_hit").inc(stage=name)

        cache_miss = obs.counter("pipeline.stage.cache_miss")
        for i in range(start, len(self.stages)):
            stage = self.stages[i]
            with obs.span("pipeline.stage", stage=stage.name,
                          clip=result.name):
                value = stage.run(ctx, value)
            stage_runs[stage.name] += 1
            if stage.provides is not None:
                outputs[stage.provides] = value
            if self.store is not None and stage.cacheable:
                cache_miss.inc(stage=stage.name)
                self.store.save(keys[i], value, meta={
                    "clip_id": result.name,
                    "stage": stage.name,
                    "fingerprint": repr(stage.fingerprint()),
                })

        return ClipArtifacts(
            result=result,
            tracks=outputs["tracks"],
            dataset=outputs["dataset"],
            ground_truth=GroundTruth.from_result(result),
            stage_runs=stage_runs,
        )
