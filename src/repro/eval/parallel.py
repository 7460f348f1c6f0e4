"""Parallel multi-clip ingestion: fan out ``build_artifacts`` over clips.

The eval pipeline ingests clips strictly serially (simulate, render,
segment, track, window — per clip), yet the clips are independent; the
multi-seed experiments and benchmarks pay the full per-clip cost times
the number of seeds.  This module fans the per-clip work over a
``ProcessPoolExecutor`` via :func:`repro.reliability.run_tasks`.

Determinism contract: a worker receives the *complete* recipe for its
clip — scenario name, scenario seed, and build kwargs — as one
:class:`IngestTask`, so every random draw is seeded from the task spec
and never from worker identity, scheduling order, or shared state.
Results are returned in task order regardless of completion order.
Parallel and serial ingestion therefore produce identical artifacts,
which the test suite asserts.

Failure contract: one clip's failure is one task's failure.  A worker
exception is retried under the optional
:class:`~repro.reliability.RetryPolicy`, then either re-raised
(``strict=True``, the historical behaviour) or reported as a
:class:`~repro.reliability.TaskFailure` inside a
:class:`~repro.reliability.BatchResult` (``strict=False``) with the
other clips' results intact.  A dead pool is rebuilt and only the
incomplete tasks are resubmitted; with no pool at all (sandboxes
without semaphores, restricted platforms), ingestion silently falls
back to the serial path with the same results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.eval.pipeline import ClipArtifacts, build_artifacts
from repro.reliability import (
    BatchResult,
    RetryPolicy,
    RunManifest,
    run_tasks,
    task_fingerprint,
)

__all__ = ["IngestTask", "build_artifacts_parallel", "artifacts_for_seeds"]


def _scenario_registry() -> dict[str, Callable]:
    # Imported lazily so a worker process resolves the scenario by name
    # (callables inside task specs would drag closures through pickle).
    from repro.sim.scenarios import highway, intersection, tunnel

    return {"tunnel": tunnel, "intersection": intersection,
            "highway": highway}


@dataclass(frozen=True)
class IngestTask:
    """Self-contained recipe for ingesting one clip.

    ``scenario`` names a builder from :mod:`repro.sim.scenarios`
    (``"tunnel"``, ``"intersection"``, ``"highway"``); ``seed`` is the
    scenario seed; ``sim_kwargs`` go to the scenario builder and
    ``build_kwargs`` to :func:`~repro.eval.pipeline.build_artifacts`.
    ``store_dir`` points every worker at a shared on-disk
    :class:`~repro.pipeline.store.DiskArtifactStore` (writes are atomic,
    so concurrent workers are safe); ``None`` disables artifact reuse.
    Everything must be picklable — tasks cross a process boundary, which
    is also why the store travels as a path rather than an object.
    """

    scenario: str
    seed: int
    sim_kwargs: dict = field(default_factory=dict)
    build_kwargs: dict = field(default_factory=dict)
    store_dir: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in ("tunnel", "intersection", "highway"):
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; expected 'tunnel', "
                f"'intersection' or 'highway'"
            )

    def fingerprint(self) -> str:
        """Content address of the recipe (excludes the store location).

        This is the task's identity in a
        :class:`~repro.reliability.RunManifest`: two tasks that would
        compute the same artifacts share a fingerprint even if their
        caches live in different directories.
        """
        return task_fingerprint(self.scenario, self.seed,
                                self.sim_kwargs, self.build_kwargs)


def run_ingest_task(task: IngestTask) -> ClipArtifacts:
    """Build one clip's artifacts from its task spec (worker entry point)."""
    builder = _scenario_registry()[task.scenario]
    sim = builder(seed=task.seed, **task.sim_kwargs)
    return build_artifacts(sim, store=task.store_dir, **task.build_kwargs)


def build_artifacts_parallel(
    tasks: Sequence[IngestTask],
    *,
    max_workers: int | None = None,
    retry: RetryPolicy | None = None,
    task_timeout: float | None = None,
    strict: bool = True,
    on_result: Callable[[int, ClipArtifacts], None] | None = None,
) -> "list[ClipArtifacts] | BatchResult":
    """Ingest many clips, concurrently when a process pool is available.

    ``max_workers=None`` sizes the pool to ``min(n_tasks, cpu_count)``;
    ``max_workers=1`` (or a single task) forces the serial path.
    Results are identical either way, by the determinism contract.

    Each task is submitted as its own future: a failing clip is retried
    under ``retry``, and a clip exceeding ``task_timeout`` seconds of
    wall clock is abandoned — in both cases the other clips' results
    survive.  Under ``strict=True`` (default) any terminal failure
    re-raises its original exception and the function returns the plain
    ``list[ClipArtifacts]``; under ``strict=False`` it returns the
    :class:`~repro.reliability.BatchResult` (partial ``results`` plus
    structured ``failures``).  ``on_result(index, artifacts)`` fires in
    completion order — :func:`artifacts_for_seeds` uses it to keep a
    resume manifest current.
    """
    batch = run_tasks(run_ingest_task, tasks, max_workers=max_workers,
                      retry=retry, task_timeout=task_timeout,
                      strict=strict, on_result=on_result)
    return batch.results if strict else batch


def artifacts_for_seeds(
    scenario: str,
    seeds: Iterable[int],
    *,
    max_workers: int | None = 1,
    sim_kwargs: dict | None = None,
    store_dir: str | None = None,
    retry: RetryPolicy | None = None,
    manifest: "RunManifest | str | None" = None,
    **build_kwargs,
) -> dict[int, ClipArtifacts]:
    """Ingest one scenario under several seeds; returns ``seed -> artifacts``.

    The shape the multi-seed protocols want: build everything up front
    (optionally in parallel), then hand
    ``artifacts_for_seed=artifacts.__getitem__`` to
    :func:`~repro.eval.protocol.run_protocol_multi`.  ``store_dir``
    threads a shared on-disk artifact store to every worker, so repeated
    ingestion of the same clips replays stored stage artifacts.

    ``manifest`` (a path or :class:`~repro.reliability.RunManifest`)
    makes the sweep resumable: every completed task is recorded
    atomically the moment it finishes, and tasks already recorded skip
    the pool entirely — they replay in-process from ``store_dir``
    (pair the two: without a store a "resumed" task still recomputes).
    A sweep killed mid-run therefore restarts exactly where it died.
    """
    seeds = tuple(seeds)
    tasks = [IngestTask(scenario=scenario, seed=s,
                        sim_kwargs=dict(sim_kwargs or {}),
                        build_kwargs=dict(build_kwargs),
                        store_dir=store_dir)
             for s in seeds]
    man = RunManifest.resolve(manifest)
    done = man.entries() if man is not None else {}
    todo = [t for t in tasks if t.fingerprint() not in done]

    def record(index: int, _artifacts: ClipArtifacts) -> None:
        task = todo[index]
        man.mark_done(task.fingerprint(),
                      {"scenario": task.scenario, "seed": task.seed})

    built = build_artifacts_parallel(
        tasks=todo, max_workers=max_workers, retry=retry,
        on_result=record if man is not None else None)
    by_fingerprint = {t.fingerprint(): a for t, a in zip(todo, built)}
    out: dict[int, ClipArtifacts] = {}
    for task in tasks:
        fp = task.fingerprint()
        if fp not in by_fingerprint:
            # Completed on a previous run: replay from the shared store.
            by_fingerprint[fp] = run_ingest_task(task)
        out[task.seed] = by_fingerprint[fp]
    return out
