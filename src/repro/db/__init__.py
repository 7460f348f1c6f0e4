"""Surveillance video database layer.

The paper frames its system as operating over a *transportation
surveillance video database*: clips are stored with their metadata ("the
time and place a video is taken"), vehicles are tracked and "the
corresponding trajectories are modeled and recorded in the database", and
semantic queries with relevance feedback run on top.  This package
provides that layer:

* :class:`~repro.db.database.VideoDatabase` — a SQLite-backed catalog of
  clips, tracks (stored both as raw points and as the paper's compact
  polynomial trajectory models), MIL datasets (VS/TS), and feedback
  labels, with bulk arrays in an npz side store.
* :class:`~repro.db.query.MultiClipQuerySession` — an interactive query
  (event type + retrieval engine) over one or more stored clips, whose
  feedback rounds are persisted; it ranks the clips' shared, live
  corpus (:func:`~repro.db.query.sharded_corpus`), and
  :class:`~repro.db.query.SemanticQuerySession` is its one-clip form.
* :class:`~repro.db.ingest.StreamingIngest` — segment-by-segment
  ingestion whose windows open sessions see as they land.
"""

from repro.db.schema import ClipRecord, LabelRecord, SessionRecord, TrackRecord
from repro.db.storage import ArrayStore, InMemoryArrayStore, NpzArrayStore
from repro.db.database import VideoDatabase
from repro.db.ingest import StreamingIngest
from repro.db.query import (
    MultiClipQuerySession,
    SemanticQuerySession,
    sharded_corpus,
)

__all__ = [
    "ClipRecord",
    "TrackRecord",
    "LabelRecord",
    "SessionRecord",
    "ArrayStore",
    "InMemoryArrayStore",
    "NpzArrayStore",
    "VideoDatabase",
    "StreamingIngest",
    "SemanticQuerySession",
    "MultiClipQuerySession",
    "sharded_corpus",
]
