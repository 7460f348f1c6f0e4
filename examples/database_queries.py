"""The database view: ingest clips, query by metadata, query by event.

The paper's setting is a *video database*: clips arrive with time/place
metadata, trajectories are modeled (compact polynomials) and recorded,
and semantic queries with per-user relevance feedback run on top.  This
example builds a small two-camera database on disk, shows metadata
queries, then runs a persistent semantic query session that survives a
process restart (here: a session re-open).

Run:  python examples/database_queries.py
"""

import tempfile
from pathlib import Path

from repro.core import OracleUser
from repro.db import SemanticQuerySession, VideoDatabase
from repro.eval import build_artifacts
from repro.sim import intersection, tunnel


def ingest(db: VideoDatabase, sim, start_time: str):
    artifacts = build_artifacts(sim, mode="oracle")
    db.ingest_simulation(sim, artifacts.tracks, artifacts.dataset,
                         start_time=start_time)
    return artifacts


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="repro-db-"))
    db_path = tmp / "surveillance.db"
    print(f"creating database at {db_path}\n")

    with VideoDatabase(db_path) as db:
        art_tunnel = ingest(db, tunnel(n_frames=800, seed=4,
                                       spawn_interval=(50.0, 80.0),
                                       n_wall_crashes=3, n_sudden_stops=2),
                            "2026-07-06T07:30:00")
        ingest(db, intersection(seed=1), "2026-07-06T08:15:00")

        print("metadata queries:")
        for clip in db.clips():
            print(f"  {clip.clip_id}: location={clip.location} "
                  f"camera={clip.camera} frames={clip.n_frames} "
                  f"start={clip.start_time}")
        tunnel_clips = db.clips(location="tunnel")
        print(f"  clips at location='tunnel': "
              f"{[c.clip_id for c in tunnel_clips]}")

        record = db.track_records("tunnel")[0]
        print(f"\nstored trajectory model for track {record.track_id}: "
              f"degree {record.degree}, rms error "
              f"{record.rms_error:.2f} px (compact polynomial, paper "
              f"Section 3.2)")

        print("\nsemantic query: accidents in the tunnel, user=alice")
        session = SemanticQuerySession(db, "tunnel", "accident",
                                       user_id="alice", top_k=8)
        user = OracleUser(art_tunnel.ground_truth)
        for round_index in range(2):
            bags = [session.dataset.bag_by_id(b) for b in session.results()]
            labels = user.label_bags(bags)
            hits = sum(labels.values())
            print(f"  round {round_index}: {hits}/8 relevant")
            session.feed(labels)

    # Re-open the database: alice's feedback is persisted, the engine
    # resumes exactly where she left off.
    with VideoDatabase(db_path) as db:
        resumed = SemanticQuerySession(db, "tunnel", "accident",
                                       user_id="alice", top_k=8)
        print(f"\nre-opened database: alice resumes at round "
              f"{resumed.round_index} with "
              f"{len(resumed.engine.labels)} stored labels")
        print(f"current top-3 windows: {resumed.result_windows()[:3]}")


if __name__ == "__main__":
    main()
