"""Command-line interface for the incident-retrieval system.

Subcommands mirror the lifecycle of the paper's system:

* ``simulate``   — generate a surveillance clip, run the pipeline, and
  ingest everything into a video database.
* ``ingest``     — the same, as a resumable segment stream: windows
  become queryable while later segments are still processing.
* ``clips``      — list stored clips, filterable by metadata.
* ``info``       — show one clip's tracks/datasets/labels.
* ``query``      — show the current top-k of a semantic query session.
* ``label``      — record one round of relevance feedback.
* ``experiment`` — run a named paper experiment and print its table.
* ``verify-db``  — integrity-check a database (``PRAGMA quick_check``
  plus catalog/array cross-checks); ``--repair`` rebuilds damaged
  datasets from the artifact cache or prunes them to consistency.

Multi-clip queries take ``--strict`` (default: a failing clip aborts
the query) or ``--degraded`` (serve the healthy shards and print an
explicit coverage report).

Example session::

    repro simulate --scenario tunnel --frames 800 --db videos.db
    repro query --db videos.db --clip tunnel --event accident --top-k 8
    repro label --db videos.db --clip tunnel --event accident \\
          --relevant 3,7 --irrelevant 1,2
    repro query --db videos.db --clip tunnel --event accident --top-k 8
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser"]

_SCENARIOS = ("tunnel", "intersection", "highway", "curve", "city_grid")
_EXPERIMENTS = (
    "figure8", "figure9", "ablation_z", "ablation_normalization",
    "ablation_window", "ablation_sampling_rate", "ablation_step",
    "ablation_learner", "other_events", "mil_algorithms", "cross_camera",
    "sharded_nomination",
)


def _add_cache_args(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument(
        "--artifact-cache", default=None, metavar="DIR",
        help="directory for the content-addressed pipeline artifact "
             "store (reuses Render/Segment/Track outputs across runs)")
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="disable artifact reuse entirely (force the cold path)")
    parser.add_argument(
        "--resume", default=None, metavar="MANIFEST",
        help="run-manifest JSON recording completed ingestion tasks; "
             "work already in the manifest is not re-ingested, so a "
             "killed run restarts where it died (pair with "
             "--artifact-cache so completed clips replay from the store)")


def _add_nominator_args(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument(
        "--nominator", default=None, choices=("heuristic", "ivf"),
        help="stage-one candidate nominator for the sharded path: "
             "'heuristic' (static prefilter, default) or 'ivf' (probe "
             "a per-shard vector index near the relevant bags)")
    parser.add_argument(
        "--index-cells", type=int, default=None, metavar="K",
        help="IVF k-means cells per shard (requires --nominator ivf)")
    parser.add_argument(
        "--nprobe", type=int, default=None, metavar="P",
        help="IVF cells probed per query (requires --nominator ivf)")


def _add_policy_args(parser: "argparse.ArgumentParser") -> None:
    policy = parser.add_mutually_exclusive_group()
    policy.add_argument(
        "--strict", dest="failure_policy", action="store_const",
        const="strict", default=None,
        help="fail the query if any member clip's storage is "
             "unavailable (default)")
    policy.add_argument(
        "--degraded", dest="failure_policy", action="store_const",
        const="degraded",
        help="serve partial results over the healthy shards when a "
             "clip's storage fails, with an explicit coverage report; "
             "failed shards rejoin automatically once they heal")


def _nominator_kwargs(args) -> dict:
    """Validate and collect the --nominator flag family.

    Mirrors the candidates_per_shard guard in
    :class:`repro.db.query.MultiClipQuerySession`: tuning knobs without
    the path that reads them are rejected, not ignored.
    """
    from repro.errors import ConfigurationError

    if (args.nprobe is not None or args.index_cells is not None) \
            and args.nominator != "ivf":
        raise ConfigurationError(
            "--nprobe/--index-cells require --nominator ivf")
    out: dict = {}
    if args.nominator is not None:
        out["nominator"] = args.nominator
    if args.index_cells is not None:
        out["index_cells"] = args.index_cells
    if args.nprobe is not None:
        out["nprobe"] = args.nprobe
    return out


def _add_obs_args(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL telemetry trace (one event per span/metric; "
             "worker-process sidecars are merged on exit)")
    parser.add_argument(
        "--metrics-dump", default=None, metavar="PATH",
        help="write a Prometheus text dump of every metric after the "
             "command finishes")
    parser.add_argument(
        "--live-metrics", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /healthz (SLO "
             "health) on this port for the duration of the command "
             "(0 picks a free port)")


def _start_obs(args, command: str):
    """Arm the process-wide telemetry for one CLI command.

    Returns the ``(telemetry, span_cm)`` pair; the caller enters the
    span around the command body and hands both to :func:`_finish_obs`.
    """
    from repro import obs

    telemetry = obs.get_telemetry()
    if args.trace:
        telemetry.configure(trace_path=args.trace)
    args._live_server = None
    if getattr(args, "live_metrics", None) is not None:
        args._live_server = obs.LiveMetricsServer(
            port=args.live_metrics).start()
        print(f"live metrics at {args._live_server.url}/metrics "
              f"(health: /healthz)")
    return telemetry, telemetry.span(f"cli.{command}")


def _finish_obs(args, telemetry, *, command: str,
                db_path: str | None = None) -> None:
    """Flush exporters and persist the run summary once a command ends."""
    from repro.obs.report import run_summary

    if getattr(args, "_live_server", None) is not None:
        args._live_server.stop()
    telemetry.flush()
    telemetry.merge_worker_traces()
    summary = run_summary(telemetry)
    if args.metrics_dump:
        from repro.obs import write_prometheus

        write_prometheus(telemetry, args.metrics_dump)
        print(f"metrics dump written to {args.metrics_dump}")
    if args.trace:
        print(f"telemetry trace written to {args.trace}")
    if db_path:
        import time

        from repro.db import VideoDatabase

        run_id = (f"{command}-{time.strftime('%Y%m%dT%H%M%S')}"
                  f"-{os.getpid()}")
        try:
            with VideoDatabase(db_path) as db:
                db.record_run_metrics(
                    run_id, command, summary,
                    created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
                    wall_ms=summary["spans"]["total_wall_ms"])
        except Exception as exc:  # telemetry must never mask the command
            print(f"warning: could not record run metrics: {exc}",
                  file=sys.stderr)
        else:
            print(f"run metrics recorded as {run_id!r} "
                  f"(inspect with: repro stats --db {db_path})")


def _add_session_obs_args(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument(
        "--profile-threshold-ms", type=float, default=None, metavar="MS",
        help="arm the sampling tail profiler: rounds slower than MS "
             "keep a collapsed-stack profile in the quality ledger")
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not persist per-round quality-ledger rows")


def _session_obs_kwargs(args) -> dict:
    out: dict = {}
    if getattr(args, "no_ledger", False):
        out["ledger"] = False
    threshold = getattr(args, "profile_threshold_ms", None)
    if threshold is not None:
        out["profiler"] = threshold
    return out


def _cache_store(args):
    """Resolve the --artifact-cache/--no-artifact-cache pair.

    Returns ``False`` (reuse disabled), a directory path, or ``None``
    (command default: no on-disk store; sweeps may still use an
    ephemeral in-memory one).
    """
    from repro.errors import ConfigurationError

    if args.no_artifact_cache:
        if args.artifact_cache:
            raise ConfigurationError(
                "--artifact-cache and --no-artifact-cache are mutually "
                "exclusive")
        return False
    return args.artifact_cache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIL incident retrieval for surveillance video "
                    "databases (ICDE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="simulate a clip and ingest it into a db")
    sim.add_argument("--scenario", choices=_SCENARIOS, default="tunnel")
    sim.add_argument("--frames", type=int, default=None,
                     help="clip length (scenario default if omitted)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--db", required=True, help="SQLite database path")
    sim.add_argument("--mode", choices=("vision", "oracle"),
                     default="vision",
                     help="full vision pipeline or oracle tracks")
    sim.add_argument("--event", default="accident",
                     help="event model for the stored dataset")
    sim.add_argument("--clip-id", default=None,
                     help="override the stored clip id")
    _add_cache_args(sim)
    _add_obs_args(sim)

    ingest = sub.add_parser(
        "ingest", help="stream a simulated clip into a db segment by "
                       "segment (resumable, queryable mid-clip)")
    ingest.add_argument("--scenario", choices=_SCENARIOS, default="tunnel")
    ingest.add_argument("--frames", type=int, default=None,
                        help="clip length (scenario default if omitted)")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--db", required=True, help="SQLite database path")
    ingest.add_argument("--event", default="accident",
                        help="event model for the stored dataset")
    ingest.add_argument("--clip-id", default=None,
                        help="override the stored clip id")
    ingest.add_argument("--stream", action="store_true",
                        help="segment-incremental ingestion (required; "
                             "whole-clip batch is 'repro simulate')")
    ingest.add_argument("--segment-frames", type=int, default=200,
                        metavar="N",
                        help="frames per streamed segment (default 200)")
    ingest.add_argument("--resume", action="store_true",
                        help="skip segments already durably appended per "
                             "the db's ingest_events journal (pair with "
                             "--artifact-cache to also replay the "
                             "pipeline work of finished segments)")
    ingest.add_argument(
        "--artifact-cache", default=None, metavar="DIR",
        help="directory for the content-addressed per-segment artifact "
             "store")
    ingest.add_argument("--no-artifact-cache", action="store_true",
                        help="disable artifact reuse entirely")
    _add_obs_args(ingest)

    clips = sub.add_parser("clips", help="list clips in a database")
    clips.add_argument("--db", required=True)
    clips.add_argument("--location", default=None)
    clips.add_argument("--camera", default=None)

    info = sub.add_parser("info", help="show one clip's contents")
    info.add_argument("--db", required=True)
    info.add_argument("--clip", required=True)

    query = sub.add_parser("query", help="show the current top-k results")
    query.add_argument("--db", required=True)
    query.add_argument("--clip", default=None, help="single clip id")
    query.add_argument("--clips", default=None,
                       help="comma-separated clip ids for a sharded "
                            "multi-clip query")
    query.add_argument("--event", default="accident")
    query.add_argument("--user", default="default")
    query.add_argument("--top-k", type=int, default=20)
    query.add_argument("--engine", default="mil_ocsvm",
                       choices=("mil_ocsvm", "weighted_rf"),
                       help="learning rule: the paper's one-class SVM or "
                            "the weighted relevance-feedback baseline")
    _add_policy_args(query)
    query.add_argument("--candidates-per-shard", type=int, default=None,
                       help="exact-score at most M bags per shard "
                            "(multi-clip only; rest keep heuristic order)")
    _add_nominator_args(query)
    _add_session_obs_args(query)

    label = sub.add_parser("label", help="record a feedback round")
    label.add_argument("--db", required=True)
    label.add_argument("--clip", default=None, help="single clip id")
    label.add_argument("--clips", default=None,
                       help="comma-separated clip ids of a multi-clip "
                            "query session")
    label.add_argument("--event", default="accident")
    label.add_argument("--user", default="default")
    label.add_argument("--relevant", default="",
                       help="comma-separated relevant bag ids")
    _add_policy_args(label)
    label.add_argument("--irrelevant", default="",
                       help="comma-separated irrelevant bag ids")
    _add_session_obs_args(label)

    experiment = sub.add_parser("experiment",
                                help="run a paper experiment")
    experiment.add_argument("--name", choices=_EXPERIMENTS,
                            required=True)
    experiment.add_argument("--mode", choices=("vision", "oracle"),
                            default=None,
                            help="override the experiment's default mode")
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--seeds", default=None,
                            help="comma-separated seed list for "
                                 "multi-seed experiments")
    experiment.add_argument("--workers", type=int, default=None,
                            help="parallel ingestion workers for "
                                 "multi-seed experiments")
    _add_nominator_args(experiment)
    experiment.add_argument("--chart", action="store_true",
                            help="append an ASCII chart of the curves")
    _add_cache_args(experiment)
    _add_obs_args(experiment)

    stats = sub.add_parser(
        "stats", help="show telemetry run reports stored in a database")
    stats.add_argument("--db", required=True)
    stats.add_argument("run", nargs="?", default=None,
                       help="run id to render (default: latest run)")
    stats.add_argument("--list", action="store_true",
                       help="only list stored runs, do not render one")

    explain = sub.add_parser(
        "explain",
        help="reconstruct a query session's per-round span trees from "
             "the quality ledger (why was round 7 slow?)")
    explain.add_argument("--db", required=True)
    explain.add_argument("session", nargs="?", default=None,
                         help="session id (user:corpus:event) or query "
                              "id; omit to list ledgered sessions")
    explain.add_argument("--round", type=int, default=None,
                         help="only this round index")
    explain.add_argument("--trace", default=None, metavar="PATH",
                         help="also fold in spans from this JSONL trace "
                              "(adds worker-process spans sharing the "
                              "round's query_id)")

    report = sub.add_parser(
        "report", help="run the whole experiment suite, emit markdown")
    report.add_argument("--out", default=None,
                        help="write the report to this file")
    report.add_argument("--only", default=None,
                        help="comma-separated experiment names")

    delete = sub.add_parser("delete-clip",
                            help="remove a clip and its derived data")
    delete.add_argument("--db", required=True)
    delete.add_argument("--clip", required=True)

    export = sub.add_parser("export-clip",
                            help="write a clip to a portable bundle")
    export.add_argument("--db", required=True)
    export.add_argument("--clip", required=True)
    export.add_argument("--out", required=True)

    import_ = sub.add_parser("import-clip",
                             help="load a clip bundle into a database")
    import_.add_argument("--db", required=True)
    import_.add_argument("--bundle", required=True)
    import_.add_argument("--replace", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant retrieval HTTP service")
    serve.add_argument("--db", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=8,
                       help="request-handling thread pool size")
    serve.add_argument("--max-sessions", type=int, default=256,
                       help="resident session soft cap (LRU-evicted "
                            "sessions resume from the catalog)")
    serve.add_argument("--no-ledger", action="store_true",
                       help="skip per-round history persistence "
                            "(disables /explain)")

    verify = sub.add_parser(
        "verify-db",
        help="check catalog integrity and dataset/array consistency")
    verify.add_argument("--db", required=True)
    verify.add_argument(
        "--repair", action="store_true",
        help="fix damaged datasets: rebuild from the artifact cache "
             "when possible, otherwise prune to the consistent subset")
    verify.add_argument(
        "--artifact-cache", default=None, metavar="DIR",
        help="content-addressed pipeline store to rebuild damaged "
             "window datasets from (the same directory past ingest "
             "runs were pointed at)")
    return parser


def _ids(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _scenario_kwargs(scenario: str, frames: int | None, seed: int) -> dict:
    """Builder kwargs for one scenario, scaling incident counts with
    clip length so short clips stay feasible and long ones interesting."""
    kwargs: dict = {"seed": seed}
    if frames is not None:
        kwargs["n_frames"] = frames
        if scenario == "tunnel":
            factor = frames / 2500
            kwargs["n_wall_crashes"] = max(1, round(7 * factor))
            kwargs["n_sudden_stops"] = max(1, round(5 * factor))
        elif scenario == "intersection":
            factor = frames / 600
            kwargs["n_collisions"] = max(1, round(5 * factor))
            kwargs["n_near_misses"] = max(1, round(4 * factor))
        elif scenario == "highway":
            factor = frames / 800
            kwargs["n_uturns"] = max(1, round(5 * factor))
            kwargs["n_speeding"] = max(1, round(4 * factor))
        elif scenario == "curve":
            factor = frames / 1200
            kwargs["n_sudden_stops"] = max(1, round(4 * factor))
        else:  # city_grid
            factor = frames / 900
            kwargs["n_collisions"] = max(1, round(3 * factor))
            kwargs["n_sudden_stops"] = max(1, round(3 * factor))
    return kwargs


def _cmd_simulate(args) -> int:
    telemetry, span_cm = _start_obs(args, "simulate")
    try:
        with span_cm:
            code = _run_simulate(args)
    finally:
        _finish_obs(args, telemetry, command="simulate", db_path=args.db)
    return code


def _run_simulate(args) -> int:
    from repro.db import VideoDatabase
    from repro.eval import build_artifacts
    from repro.sim import city_grid, curve, highway, intersection, tunnel

    builders = {"tunnel": tunnel, "intersection": intersection,
                "highway": highway, "curve": curve,
                "city_grid": city_grid}
    store = _cache_store(args)  # validate the flags before simulating
    if store is False:
        store = None
    kwargs = _scenario_kwargs(args.scenario, args.frames, args.seed)
    manifest, fingerprint = None, None
    if args.resume:
        from repro.reliability import RunManifest, task_fingerprint

        sim_kwargs = {k: v for k, v in kwargs.items() if k != "seed"}
        fingerprint = task_fingerprint(
            args.scenario, args.seed, sim_kwargs,
            {"event": args.event, "mode": args.mode, "db": args.db,
             "clip_id": args.clip_id})
        manifest = RunManifest(args.resume)
        if manifest.is_done(fingerprint):
            print(f"already completed per manifest {args.resume} "
                  f"(fingerprint {fingerprint[:12]}); skipping")
            return 0
    sim = builders[args.scenario](**kwargs)
    if args.clip_id:
        sim.name = args.clip_id
    print(f"simulated {sim.name!r}: {sim.n_frames} frames, "
          f"{len(sim.incidents)} incidents")
    artifacts = build_artifacts(sim, event=args.event, mode=args.mode,
                                store=store)
    replayed = [name for name, runs in artifacts.stage_runs.items()
                if runs == 0]
    if replayed:
        print(f"artifact cache replayed stages: {', '.join(replayed)}")
    with VideoDatabase(args.db) as db:
        db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset)
        if store is not None:
            from repro.pipeline import resolve_store

            db.record_artifact_entries(resolve_store(store).entries())
    print(f"ingested into {args.db}: {len(artifacts.tracks)} tracks, "
          f"{len(artifacts.dataset)} video sequences, "
          f"{artifacts.dataset.n_instances} trajectory sequences")
    if manifest is not None:
        manifest.mark_done(fingerprint, {"scenario": args.scenario,
                                         "seed": args.seed,
                                         "clip_id": sim.name,
                                         "db": args.db})
        print(f"recorded completion in {args.resume}")
    return 0


def _cmd_ingest(args) -> int:
    telemetry, span_cm = _start_obs(args, "ingest")
    try:
        with span_cm:
            code = _run_ingest(args)
    finally:
        _finish_obs(args, telemetry, command="ingest", db_path=args.db)
    return code


def _run_ingest(args) -> int:
    import time

    from repro.db import StreamingIngest, VideoDatabase
    from repro.errors import ConfigurationError
    from repro.sim import city_grid, curve, highway, intersection, tunnel

    if not args.stream:
        raise ConfigurationError(
            "repro ingest is the streaming path: pass --stream "
            "(whole-clip batch ingestion is 'repro simulate')")
    store = _cache_store(args)
    if store is False:
        store = None
    builders = {"tunnel": tunnel, "intersection": intersection,
                "highway": highway, "curve": curve,
                "city_grid": city_grid}
    sim = builders[args.scenario](
        **_scenario_kwargs(args.scenario, args.frames, args.seed))
    if args.clip_id:
        sim.name = args.clip_id
    print(f"simulated {sim.name!r}: {sim.n_frames} frames, "
          f"{len(sim.incidents)} incidents")
    started = time.perf_counter()
    first_window_s: float | None = None

    def progress(e) -> None:
        nonlocal first_window_s
        if e.bags and first_window_s is None:
            first_window_s = time.perf_counter() - started
        how = "cached" if e.cached else "built"
        print(f"  segment {e.index} [{e.frame_lo},{e.frame_hi}): "
              f"{len(e.bags)} new windows ({how}), "
              f"frontier={e.frontier}, open tracks={e.n_open_tracks}")

    with VideoDatabase(args.db) as db:
        ingest = StreamingIngest(db, sim, event=args.event,
                                 segment_frames=args.segment_frames,
                                 store=store)
        artifacts = ingest.run(resume=args.resume, progress=progress)
    total_s = time.perf_counter() - started
    print(f"streamed into {args.db}: {len(artifacts.dataset)} video "
          f"sequences over {ingest.segments_appended} appended segments "
          f"({ingest.segments_skipped} already durable), "
          f"{len(artifacts.tracks)} tracks")
    if first_window_s is not None:
        print(f"first windows queryable after {first_window_s:.2f}s "
              f"(full stream: {total_s:.2f}s)")
    return 0


def _cmd_clips(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        rows = db.clips(location=args.location, camera=args.camera)
        if not rows:
            print("(no clips)")
            return 0
        for clip in rows:
            print(f"{clip.clip_id}: location={clip.location or '-'} "
                  f"camera={clip.camera or '-'} frames={clip.n_frames} "
                  f"start={clip.start_time or '-'}")
    return 0


def _cmd_info(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        clip = db.clip(args.clip)
        tracks = db.track_records(args.clip)
        events = db.events_for(args.clip)
        print(f"clip {clip.clip_id}: {clip.n_frames} frames "
              f"{clip.width}x{clip.height} @ {clip.fps} fps")
        print(f"  location={clip.location or '-'} camera="
              f"{clip.camera or '-'} start={clip.start_time or '-'}")
        print(f"  tracks: {len(tracks)}")
        for event in events:
            dataset = db.dataset(args.clip, event)
            labels = db.labels(args.clip, event)
            print(f"  dataset {event!r}: {len(dataset)} VSs, "
                  f"{dataset.n_instances} TSs, {len(labels)} stored labels")
    return 0


def _clip_selection(args) -> tuple[str | None, list[str] | None]:
    """(clip, clips) from ``--clip`` / ``--clips`` (exactly one)."""
    clips = [c for c in (args.clips or "").split(",") if c]
    if bool(args.clip) == bool(clips):
        print("pass exactly one of --clip or --clips", file=sys.stderr)
        return None, None
    return args.clip, clips or None


def _open_session(db, args, **kwargs):
    from repro.db import MultiClipQuerySession, SemanticQuerySession

    clip, clips = _clip_selection(args)
    if clip is None and clips is None:
        return None
    if clips is not None:
        if kwargs.get("failure_policy") is None:
            kwargs.pop("failure_policy", None)
        return MultiClipQuerySession(db, clips, args.event,
                                     user_id=args.user, **kwargs)
    if kwargs.pop("failure_policy", None) == "degraded":
        print("--degraded needs a multi-clip query (--clips): the shard "
              "is the failure domain", file=sys.stderr)
        return None
    if kwargs.pop("candidates_per_shard", None) is not None:
        print("--candidates-per-shard needs a multi-clip query (--clips)",
              file=sys.stderr)
        return None
    if any(kwargs.pop(k, None) is not None
           for k in ("nominator", "index_cells", "nprobe")):
        print("--nominator/--index-cells/--nprobe need a multi-clip "
              "query (--clips)", file=sys.stderr)
        return None
    return SemanticQuerySession(db, clip, args.event,
                                user_id=args.user, **kwargs)


def _cmd_query(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        session = _open_session(
            db, args, engine=args.engine, top_k=args.top_k,
            candidates_per_shard=args.candidates_per_shard,
            failure_policy=args.failure_policy,
            **_nominator_kwargs(args), **_session_obs_kwargs(args))
        if session is None:
            return 2
        target = args.clip or args.clips
        print(f"query clip={target} event={args.event} "
              f"user={args.user} round={session.round_index}")
        for rank, (bag_id, lo, hi) in enumerate(session.result_windows(),
                                                start=1):
            print(f"  {rank:2d}. VS {bag_id:4d}  frames {lo}-{hi}")
        coverage = getattr(session, "last_coverage", None)
        if coverage is not None and coverage.degraded:
            print(f"  ** {coverage.summary()}")
        _report_session_obs(args, session)
    return 0


def _report_session_obs(args, session) -> None:
    """Point the user at the ledger/profiles a session just produced."""
    if session.ledger:
        print(f"  (ledgered as session {session.session_id!r}; inspect "
              f"with: repro explain --db {args.db} "
              f"{session.session_id})")
    profiler = session.profiler
    if profiler is not None and profiler.profiles:
        worst = max(p.wall_ms for p in profiler.profiles)
        print(f"  ** {len(profiler.profiles)} tail profile(s) captured "
              f"(worst {worst:.1f} ms >= "
              f"{profiler.threshold_ms:g} ms threshold); stored in the "
              f"quality ledger")


def _cmd_label(args) -> int:
    from repro.db import VideoDatabase

    labels = {b: True for b in _ids(args.relevant)}
    labels.update({b: False for b in _ids(args.irrelevant)})
    if not labels:
        print("nothing to label: pass --relevant and/or --irrelevant",
              file=sys.stderr)
        return 2
    with VideoDatabase(args.db) as db:
        session = _open_session(db, args,
                                failure_policy=args.failure_policy,
                                **_session_obs_kwargs(args))
        if session is None:
            return 2
        session.feed(labels)
        print(f"recorded round {session.round_index - 1}: "
              f"{sum(labels.values())} relevant, "
              f"{len(labels) - sum(labels.values())} irrelevant")
        _report_session_obs(args, session)
    return 0


def _cmd_experiment(args) -> int:
    telemetry, span_cm = _start_obs(args, "experiment")
    try:
        with span_cm:
            code = _run_experiment(args)
    finally:
        _finish_obs(args, telemetry, command="experiment")
    return code


def _run_experiment(args) -> int:
    from repro.errors import ConfigurationError
    from repro.eval import experiments
    from repro.eval.reporting import comparison_table

    import inspect

    runner = getattr(experiments, args.name)
    accepted = inspect.signature(runner).parameters
    kwargs = {}
    if args.mode is not None and "mode" in accepted:
        kwargs["mode"] = args.mode
    if args.seed is not None and "seed" in accepted:
        kwargs["seed"] = args.seed
    if args.seeds is not None:
        if "seeds" not in accepted:
            raise ConfigurationError(
                f"experiment {args.name!r} does not take --seeds")
        kwargs["seeds"] = tuple(_ids(args.seeds))
    if args.workers is not None and "max_workers" in accepted:
        kwargs["max_workers"] = args.workers
    nominator_kwargs = _nominator_kwargs(args)
    for flag, name in (("--nominator", "nominator"),
                       ("--index-cells", "index_cells"),
                       ("--nprobe", "nprobe")):
        if name not in nominator_kwargs:
            continue
        if name not in accepted:
            raise ConfigurationError(
                f"experiment {args.name!r} does not take {flag}")
        kwargs[name] = nominator_kwargs[name]
    if args.resume is not None:
        if "manifest" not in accepted:
            raise ConfigurationError(
                f"experiment {args.name!r} does not support --resume")
        kwargs["manifest"] = args.resume
    store = _cache_store(args)
    if store is not None and "store" in accepted:
        kwargs["store"] = store
    result = runner(**kwargs)
    print(comparison_table(result, with_chart=args.chart))
    return 0


def _cmd_stats(args) -> int:
    from repro.db import VideoDatabase
    from repro.obs import render_run_report

    with VideoDatabase(args.db) as db:
        runs = db.run_metrics(args.run)
    if not runs:
        if args.run:
            print(f"error: no run {args.run!r} in {args.db}",
                  file=sys.stderr)
            return 1
        print("(no recorded runs; run simulate/experiment with this db "
              "to collect telemetry)")
        return 0
    if args.list or (args.run is None and len(runs) > 1):
        print(f"{len(runs)} recorded run(s):")
        for run in runs:
            print(f"  {run['run_id']}: command={run['command']} "
                  f"at={run['created_at'] or '-'} "
                  f"wall={run['wall_ms']:.0f}ms")
        if args.list:
            return 0
        print()
    run = runs[0]
    print(f"run {run['run_id']} ({run['command']}, "
          f"{run['created_at'] or 'unknown time'})")
    print(render_run_report(run["summary"]))
    return 0


def _cmd_explain(args) -> int:
    from repro.db import VideoDatabase
    from repro.obs.explain import (
        load_trace_spans,
        render_round,
        render_session_listing,
    )

    with VideoDatabase(args.db) as db:
        if args.session is None:
            print(render_session_listing(db.query_sessions()))
            return 0
        rows = db.query_rounds(session_id=args.session)
        if not rows:
            rows = db.query_rounds(query_id=args.session)
        if not rows:
            print(f"error: no ledgered rounds for {args.session!r} in "
                  f"{args.db} (list sessions with: repro explain "
                  f"--db {args.db})", file=sys.stderr)
            return 1
        if args.round is not None:
            rows = [r for r in rows if r["round_index"] == args.round]
            if not rows:
                print(f"error: no ledgered round {args.round} for "
                      f"{args.session!r}", file=sys.stderr)
                return 1
    head = rows[0]
    print(f"session {head['session_id']} · corpus {head['corpus_id']} · "
          f"event {head['event']} · user {head['user_id']} · "
          f"{len(rows)} round(s)")
    trace_spans_by_query: dict = {}
    for row in rows:
        extra = ()
        if args.trace:
            qid = row["query_id"]
            if qid not in trace_spans_by_query:
                trace_spans_by_query[qid] = load_trace_spans(
                    args.trace, query_id=qid)
            extra = [e for e in trace_spans_by_query[qid]
                     if e.get("attrs", {}).get("query_round")
                     == row["round_index"]]
        print()
        print(render_round(row, extra_spans=extra))
    return 0


def _cmd_report(args) -> int:
    from repro.eval.report import generate_report

    names = ([part.strip() for part in args.only.split(",") if part.strip()]
             if args.only else None)
    text = generate_report(names=names, out_path=args.out,
                           progress=lambda line: print(line))
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_delete_clip(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        db.delete_clip(args.clip)
    print(f"deleted clip {args.clip!r} from {args.db}")
    return 0


def _cmd_export_clip(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        db.export_clip(args.clip, args.out)
    print(f"exported clip {args.clip!r} to {args.out}")
    return 0


def _cmd_import_clip(args) -> int:
    from repro.db import VideoDatabase

    with VideoDatabase(args.db) as db:
        record = db.import_clip(args.bundle, replace=args.replace)
    print(f"imported clip {record.clip_id!r} into {args.db}")
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.service import RetrievalHTTPServer, RetrievalService

    service = RetrievalService(args.db, max_sessions=args.max_sessions,
                               ledger=not args.no_ledger)
    server = RetrievalHTTPServer(service, host=args.host, port=args.port,
                                 max_workers=args.workers)
    try:
        server.start()
    except OSError as exc:
        service.close()
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    print(f"serving retrieval API on {server.url}")
    print("  POST /sessions                  create or resume a session")
    print("  POST /sessions/<id>/feed        submit a feedback round")
    print("  GET  /sessions/<id>/results     current ranking")
    print("  GET  /sessions/<id>/explain     per-round history")
    print("  GET  /metrics | /healthz        live telemetry")
    print("press Ctrl-C to stop")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
        service.close()
    return 0


def _cmd_verify_db(args) -> int:
    from repro.db import VideoDatabase
    from repro.pipeline.store import DiskArtifactStore

    store = (DiskArtifactStore(args.artifact_cache)
             if args.artifact_cache else None)
    # quick_check=False: verify-db must be able to open a database that
    # the on-open check would reject — verify() re-runs the check and
    # reports it instead of refusing to look.
    with VideoDatabase(args.db, quick_check=False) as db:
        report = db.verify(repair=args.repair, artifact_store=store)
    print(f"quick_check: {report['quick_check']}")
    print(f"datasets checked: {report['datasets_checked']}")
    for issue in report["issues"]:
        action = issue.get("action") or "detected"
        print(f"  {issue['clip_id']}/{issue['event']}: "
              f"{issue['problem']} [{action}]")
    if report["issues"] and not args.repair:
        print("re-run with --repair (and --artifact-cache DIR) to "
              "rebuild or prune damaged datasets")
    print(f"repaired: {report['repaired']}")
    print("healthy" if report["healthy"] else "NOT healthy")
    return 0 if report["healthy"] else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ingest": _cmd_ingest,
    "clips": _cmd_clips,
    "info": _cmd_info,
    "query": _cmd_query,
    "label": _cmd_label,
    "experiment": _cmd_experiment,
    "stats": _cmd_stats,
    "explain": _cmd_explain,
    "report": _cmd_report,
    "delete-clip": _cmd_delete_clip,
    "export-clip": _cmd_export_clip,
    "import-clip": _cmd_import_clip,
    "serve": _cmd_serve,
    "verify-db": _cmd_verify_db,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
