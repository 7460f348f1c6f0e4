"""End-to-end walkthrough: every subsystem on one city-grid clip.

Simulates routed traffic on a street grid (networkx), runs the full
vision pipeline, repairs tracks across occlusions, classifies vehicles,
detects blob merges (the visual signature of a collision), stores it all
in a database, and runs an interactive accident query with explanations.

Run:  python examples/full_walkthrough.py        (~30 s)
"""

import tempfile
from pathlib import Path

from repro.core import MILRetrievalEngine, OracleUser, RetrievalSession
from repro.db import SemanticQuerySession, VideoDatabase
from repro.eval import build_artifacts
from repro.eval.diagnostics import evaluate_instance_discovery
from repro.sim import city_grid, traffic_statistics
from repro.tracking import (
    CentroidTracker,
    detect_merge_events,
    merge_intervals,
    stitch_tracks,
)
from repro.vision import (
    SegmentationPipeline,
    VideoClip,
    classify_tracks,
    evaluate_detections,
    evaluate_tracking,
)


def main() -> None:
    print("1) simulate: routed traffic on a 4x3 street grid")
    sim = city_grid(seed=4)
    print(f"   {traffic_statistics(sim).summary()}\n")

    print("2) vision: render, subtract background, extract blobs")
    clip = VideoClip.from_simulation(sim, render_seed=1)
    detections = SegmentationPipeline(use_spcpe=False).process(clip)
    det_quality = evaluate_detections(sim, detections)
    print(f"   {det_quality}\n")

    print("3) tracking: associate, then stitch occlusion fragments")
    fragments = CentroidTracker().track(detections)
    tracks = stitch_tracks(fragments)
    track_quality = evaluate_tracking(sim, tracks)
    print(f"   {len(fragments)} fragments -> {len(tracks)} tracks; "
          f"{track_quality}\n")

    print("4) classification + merge analysis")
    classes = classify_tracks(clip, tracks)
    counts = {c: list(classes.values()).count(c)
              for c in sorted(set(classes.values()))}
    print(f"   vehicle classes: {counts}")
    intervals = merge_intervals(detect_merge_events(tracks, detections))
    for interval in intervals[:3]:
        print(f"   blob merge: tracks {interval.track_ids} share one blob "
              f"frames {interval.frame_lo}-{interval.frame_hi}")
    print()

    print("5) events + retrieval: the paper's interactive loop")
    # Grid scenes are the hard case: every junction turn is normal theta
    # activity and identity switches add noise, so give the user the
    # paper's full top-20 budget per round.
    artifacts = build_artifacts(sim, mode="vision", stitch=True)
    engine = MILRetrievalEngine(artifacts.dataset)
    user = OracleUser(artifacts.ground_truth)
    session = RetrievalSession(engine, user, top_k=20)
    session.run(4)
    print(f"   accuracy per round: "
          f"{['%.0f%%' % (a * 100) for a in session.accuracies()]}")
    top_id = engine.top_k(1)[0]
    print(f"   top hit explanation (VS {top_id}):")
    for explanation in engine.explain(top_id)[:3]:
        channel, value = explanation.peak_feature()
        print(f"     #{explanation.rank} track {explanation.track_id}: "
              f"score {explanation.score:+.3f}, peak {channel}={value:+.2f}")
    discovery = evaluate_instance_discovery(artifacts, engine)
    print(f"   instance attribution: {discovery}\n")

    print("6) database: persist and query with a vehicle-class filter")
    db_path = Path(tempfile.mkdtemp(prefix="repro-walkthrough-")) / "g.db"
    with VideoDatabase(db_path) as db:
        db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset,
                             vehicle_classes=classify_tracks(
                                 clip, artifacts.tracks))
        query = SemanticQuerySession(db, sim.name, "accident", top_k=5)
        print(f"   top-5 accident windows: {query.result_windows()}")
        trucks = query.results(vehicle_class="truck")
        print(f"   ... restricted to scenes with a truck: {trucks}")
    print(f"\ndatabase on disk: {db_path}")


if __name__ == "__main__":
    main()
