"""SegmentedRunner: the batch clip pipeline as an incremental stream.

Splits a clip into fixed-size frame segments and pushes each one through
the vision stages with explicit carry-over state:

* **background statistics** — the :class:`SegmentationPipeline` (and its
  :class:`BackgroundModel`) persists across segment boundaries; the
  median bootstrap samples the whole clip exactly as the batch path
  does, and the selective running average then sees frames in the same
  global order, so per-frame detections are bit-identical to batch;
* **open tracks** — one :class:`CentroidTracker` instance advances frame
  by frame across segments and is only ``finish()``-ed at the end, so
  the final track set matches a single batch pass by construction;
* **partial windows** — a :class:`StreamingWindowEmitter` holds the
  emitted-window cursor and emits, at every segment boundary, exactly
  the windows that can no longer change (see
  :mod:`repro.events.streaming` for the stable-frontier argument).

Each segment's output (newly final bags + the carry state after the
segment) is fingerprinted into the regular content-addressed
:class:`~repro.pipeline.store.ArtifactStore` under a key chaining the
clip digest, every vision-stage fingerprint, the segment length, and the
segment index.  A rerun resumes after the deepest contiguous cached
prefix; a blob that fails checksum verification is quarantined by the
store and demotes the resume to a recompute — the same self-healing
contract as :class:`~repro.pipeline.runner.PipelineRunner`.

Stitching is rejected: the greedy global stitcher can re-join fragments
arbitrarily far back when new fragments appear, so no finite frontier
makes early emission safe.  Oracle mode has no frame stream to segment.
"""

from __future__ import annotations

import copy
import hashlib
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.bags import Bag, MILDataset
from repro.errors import ConfigurationError, StorageError
from repro.events.streaming import StreamingWindowEmitter
from repro.obs import get_telemetry
from repro.pipeline.artifacts import ClipArtifacts
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import clip_digest
from repro.pipeline.stages import build_stages
from repro.pipeline.store import ArtifactStore, resolve_store
from repro.sim.ground_truth import GroundTruth
from repro.sim.world import SimulationResult, segment_bounds
from repro.tracking.track import Track

__all__ = ["SegmentedRunner", "SegmentEmission", "SegmentArtifact"]


@dataclass
class SegmentCarry:
    """Everything one segment hands to the next (picklable)."""

    segmenter: object            # SegmentationPipeline with background state
    tracker: object              # CentroidTracker with open tracks
    emitter: StreamingWindowEmitter


@dataclass
class SegmentEmission:
    """What one processed segment contributes to the live corpus."""

    index: int
    frame_lo: int
    frame_hi: int
    #: Newly final bags (clip-local ids, identical to the batch dataset's).
    bags: list[Bag]
    #: Stable frontier after this segment (highest queryable frame).
    frontier: int
    #: Served from the artifact store instead of being computed.
    cached: bool = False
    n_open_tracks: int = 0
    n_finished_tracks: int = 0
    final: bool = False


@dataclass
class SegmentArtifact:
    """Stored per-segment record: the emission plus the carry after it
    (a snapshot taken only when a store keeps the record; ``None``
    otherwise)."""

    index: int
    frame_lo: int
    frame_hi: int
    frontier: int
    bags: list[Bag]
    carry: SegmentCarry | None
    n_open_tracks: int = 0
    n_finished_tracks: int = 0
    #: Final segment only: the finished track list and the full
    #: (batch-identical) dataset, so a fully-cached stream can rebuild
    #: :class:`ClipArtifacts` without recomputing anything.
    tracks: list[Track] | None = None
    dataset: MILDataset | None = field(default=None)


class SegmentedRunner:
    """Run the vision pipeline as a resumable segment stream.

    ``segment_frames`` fixes the stream granularity; ``store`` (optional)
    is any :class:`ArtifactStore` — per-segment artifacts are content
    addressed, so a killed run resumes from the last durable segment and
    a config change invalidates every segment key at once.
    """

    def __init__(self, config: PipelineConfig | None = None, *,
                 segment_frames: int = 200,
                 store: ArtifactStore | str | None = None) -> None:
        self.config = config or PipelineConfig()
        if self.config.mode != "vision":
            raise ConfigurationError(
                "streaming ingestion requires mode='vision': oracle tracks "
                "come from simulator truth, there is no frame stream to "
                "segment"
            )
        if self.config.stitch.enabled:
            raise ConfigurationError(
                "streaming ingestion requires stitch disabled: the global "
                "greedy stitcher can re-join fragments arbitrarily far "
                "back, so no finite frontier makes early emission safe"
            )
        if segment_frames < 1:
            raise ConfigurationError(
                f"segment_frames must be >= 1, got {segment_frames}")
        self.segment_frames = int(segment_frames)
        self.store = resolve_store(store)
        #: ClipArtifacts of the last completed stream() (batch-identical).
        self.artifacts: ClipArtifacts | None = None
        self.segments_executed = 0
        self.segments_cached = 0

    # ------------------------------------------------------------- keys
    def segment_bounds(self, n_frames: int) -> list[tuple[int, int]]:
        return segment_bounds(n_frames, self.segment_frames)

    def _stream_fingerprint(self) -> tuple:
        stages = [s.fingerprint() for s in build_stages(self.config)]
        return ("stream", self.segment_frames, tuple(stages))

    def segment_keys(self, result: SimulationResult) -> list[str]:
        """One content address per segment.

        Every key covers the *whole* clip digest (the background
        bootstrap samples the entire clip, so even segment 0 depends on
        every frame), all vision-stage fingerprints, the segment length,
        and the segment index.
        """
        base = (clip_digest(result), self._stream_fingerprint())
        return [
            hashlib.sha256(repr(base + (i,)).encode("utf-8")).hexdigest()
            for i in range(len(self.segment_bounds(result.n_frames)))
        ]

    # ------------------------------------------------------------ carry
    def _fresh_carry(self, result: SimulationResult) -> SegmentCarry:
        from repro.tracking.tracker import CentroidTracker
        from repro.vision.pipeline import SegmentationPipeline

        cfg = self.config
        tracker = CentroidTracker()
        return SegmentCarry(
            segmenter=SegmentationPipeline(
                use_spcpe=cfg.segment.use_spcpe,
                min_area=cfg.segment.min_area,
                max_area=cfg.segment.max_area,
                patch_margin=cfg.segment.patch_margin,
            ),
            tracker=tracker,
            emitter=StreamingWindowEmitter(
                cfg.resolve_event_model(),
                clip_id=result.name,
                window_size=cfg.windows.window_size,
                step=cfg.windows.step,
                config=cfg.series.sampling,
                keep_empty=cfg.windows.keep_empty,
                min_track_length=tracker.min_track_length,
            ),
        )

    def _render(self, result: SimulationResult):
        from repro.vision.frames import VideoClip

        cfg = self.config.render
        return VideoClip.from_simulation(
            result, render_seed=cfg.render_seed,
            noise_sigma=cfg.noise_sigma, fps=cfg.fps)

    # ------------------------------------------------------------ stream
    def stream(self, result: SimulationResult
               ) -> Iterator[SegmentEmission]:
        """Yield one :class:`SegmentEmission` per segment, in order.

        Cached segments replay instantly (``cached=True``); computation
        resumes after the deepest contiguous stored prefix.  When the
        generator is exhausted, :attr:`artifacts` holds the clip's full
        batch-identical :class:`ClipArtifacts`.

        The computed segments read their frames from one
        :class:`~repro.vision.frames.FrameReader`, opened at the first
        computed segment (after the background bootstrap, if the carry
        has none) with a window of ``segment_frames``.  So while the
        generator waits at a ``yield`` for its caller, the reader's
        helper thread renders the next segment, and each frame renders
        once per stream, the bootstrap's sampled frames included.  At
        most one segment of frames is rendered past the caller, plus the
        sampled frames not yet reached (at most the model's
        ``bootstrap_frames``, 25 by default).  The reader closes, and its
        helper is joined, when the generator is exhausted or closed; a
        caller that stops early should ``close()`` it, as :meth:`run`
        does, rather than leave that to garbage collection.
        """
        obs = get_telemetry()
        bounds = self.segment_bounds(result.n_frames)
        keys = self.segment_keys(result)
        started = time.perf_counter()

        start = 0
        cached_artifacts: list[SegmentArtifact] = []
        if self.store is not None:
            while start < len(bounds) and self.store.has(keys[start]):
                start += 1
            try:
                cached_artifacts = [self.store.load(keys[i])
                                    for i in range(start)]
            except StorageError:
                # A quarantined/corrupt blob: demote to a full recompute
                # (slower, never wrong) — mirrors PipelineRunner.
                obs.counter("pipeline.integrity_recoveries").inc()
                obs.event("ingest.resume_demoted", level="warning",
                          clip=result.name)
                start, cached_artifacts = 0, []

        carry = (copy.deepcopy(cached_artifacts[-1].carry)
                 if cached_artifacts else self._fresh_carry(result))
        final_artifact: SegmentArtifact | None = None
        done = 0
        for art in cached_artifacts:
            self.segments_cached += 1
            obs.counter("ingest.segments").inc(outcome="cached")
            done += 1
            if art.tracks is not None:
                final_artifact = art
            yield SegmentEmission(
                index=art.index, frame_lo=art.frame_lo,
                frame_hi=art.frame_hi, bags=art.bags,
                frontier=art.frontier, cached=True,
                n_open_tracks=art.n_open_tracks,
                n_finished_tracks=art.n_finished_tracks,
                final=art.index == len(bounds) - 1,
            )

        if start == len(bounds):  # all replayed: nothing to render
            assert final_artifact is not None
            self.artifacts = self._finalize(result, final_artifact)
            return
        # One reader for every computed frame, rendering up to a segment
        # ahead: its helper renders the next segment while the caller
        # handles this one's emission.  It is a local, closed however the
        # stream ends, so no thread or frame outlives the stream and the
        # carry holds neither.
        reader = carry.segmenter.open_reader(
            self._render(result), bounds[start][0],
            window=self.segment_frames)
        try:
            for i in range(start, len(bounds)):
                lo, hi = bounds[i]
                final = i == len(bounds) - 1
                with obs.span("ingest.segment", clip=result.name, segment=i,
                              frames=hi - lo) as sp:
                    for frame in range(lo, hi):
                        carry.tracker.update(frame, carry.segmenter.detect(
                            frame, next(reader)))
                    if final:
                        tracks = carry.tracker.finish()
                        bags = carry.emitter.emit(
                            tracks, [], processed_frames=hi, final=True)
                    else:
                        tracks = None
                        bags = carry.emitter.emit(
                            carry.tracker.finished_tracks,
                            carry.tracker.open_tracks,
                            processed_frames=hi)
                    if sp is not None:
                        sp.set(bags=len(bags),
                               frontier=carry.emitter.last_frontier)
                self.segments_executed += 1
                done += 1
                obs.counter("ingest.segments").inc(outcome="computed")
                if bags:
                    obs.counter("ingest.bags_emitted").inc(len(bags))
                lag = (hi - 1) - carry.emitter.last_frontier
                obs.gauge("ingest.lag_frames").set(max(lag, 0))
                elapsed = time.perf_counter() - started
                if elapsed > 0:
                    obs.gauge("ingest.segments_per_sec").set(done / elapsed)

                artifact = SegmentArtifact(
                    index=i, frame_lo=lo, frame_hi=hi,
                    frontier=carry.emitter.last_frontier, bags=bags,
                    # Only store.save reads the carry; the live one moves on.
                    carry=(copy.deepcopy(carry) if self.store is not None
                           else None),
                    n_open_tracks=len(carry.tracker.open_tracks),
                    n_finished_tracks=len(carry.tracker.finished_tracks),
                    tracks=tracks,
                    dataset=carry.emitter.last_dataset if final else None,
                )
                if final:
                    final_artifact = artifact
                if self.store is not None:
                    self.store.save(keys[i], artifact, meta={
                        "clip_id": result.name,
                        "stage": f"stream.segment[{i}]",
                        "fingerprint": repr(self._stream_fingerprint()),
                    })
                yield SegmentEmission(
                    index=i, frame_lo=lo, frame_hi=hi, bags=bags,
                    frontier=artifact.frontier, cached=False,
                    n_open_tracks=artifact.n_open_tracks,
                    n_finished_tracks=artifact.n_finished_tracks,
                    final=final,
                )
        finally:
            reader.close()

        assert final_artifact is not None
        self.artifacts = self._finalize(result, final_artifact)

    def _finalize(self, result: SimulationResult,
                  final_artifact: SegmentArtifact) -> ClipArtifacts:
        dataset = final_artifact.dataset
        assert dataset is not None and final_artifact.tracks is not None
        return ClipArtifacts(
            result=result,
            tracks=final_artifact.tracks,
            dataset=dataset,
            ground_truth=GroundTruth.from_result(result),
            stage_runs={"stream": self.segments_executed},
        )

    # --------------------------------------------------------------- run
    def run(self, result: SimulationResult,
            on_emission: Callable[[SegmentEmission], None] | None = None
            ) -> ClipArtifacts:
        """Drive the whole stream; returns batch-identical artifacts.

        ``on_emission`` is called after every segment — the streaming
        ingest path uses it to append each emission's bags to the
        database/live shard as soon as they are final.  The stream's
        frame reader renders the next segment while it runs, and is
        closed before this returns or raises: an ``on_emission`` error
        leaves no helper thread running, even while its traceback holds
        the stream.
        """
        with get_telemetry().span("pipeline.stream", clip=result.name,
                                  segment_frames=self.segment_frames), \
                closing(self.stream(result)) as stream:
            for emission in stream:
                if on_emission is not None:
                    on_emission(emission)
        assert self.artifacts is not None
        return self.artifacts
