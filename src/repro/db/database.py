"""SQLite-backed video database catalog.

Stores clips with their metadata, per-vehicle tracks (raw points in the
array store plus the paper's compact polynomial trajectory model in the
catalog), MIL datasets (Video Sequences / Trajectory Sequences per event
model) and accumulated relevance-feedback labels.

The database is the integration point of the whole system: the ingest
path (simulate/record -> segment -> track -> model -> window) writes,
the query path (:mod:`repro.db.query`) reads and appends labels.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core.bags import Bag, Instance, MILDataset
from repro.db.schema import (
    ClipRecord,
    LabelRecord,
    SessionRecord,
    TrackRecord,
    session_id_for,
)
from repro.db.storage import InMemoryArrayStore, NpzArrayStore
from repro.errors import (
    ConfigurationError,
    DatabaseBusyError,
    SessionConflictError,
    StorageError,
)
from repro.trajectory.curve import TrajectoryModel

__all__ = ["VideoDatabase", "connect_sqlite"]

#: The label history, clustered on the tenant's history: the key leads
#: with ``(clip_id, event, user_id)`` and then the round, so one round's
#: rows share a leaf page and a label commit writes one B-tree.
_LABELS_TABLE = """(
    clip_id     TEXT NOT NULL,
    event       TEXT NOT NULL,
    bag_id      INTEGER NOT NULL,
    user_id     TEXT NOT NULL,
    round_index INTEGER NOT NULL,
    relevant    INTEGER NOT NULL,
    PRIMARY KEY (clip_id, event, user_id, round_index, bag_id)
) WITHOUT ROWID"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS clips (
    clip_id     TEXT PRIMARY KEY,
    location    TEXT NOT NULL DEFAULT '',
    camera      TEXT NOT NULL DEFAULT '',
    start_time  TEXT NOT NULL DEFAULT '',
    fps         REAL NOT NULL,
    n_frames    INTEGER NOT NULL,
    width       INTEGER NOT NULL,
    height      INTEGER NOT NULL,
    extra       TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS tracks (
    clip_id     TEXT NOT NULL REFERENCES clips(clip_id),
    track_id    INTEGER NOT NULL,
    first_frame INTEGER NOT NULL,
    last_frame  INTEGER NOT NULL,
    n_points    INTEGER NOT NULL,
    degree      INTEGER NOT NULL,
    coeff_x     TEXT NOT NULL,
    coeff_y     TEXT NOT NULL,
    shift       REAL NOT NULL,
    scale       REAL NOT NULL,
    rms_error   REAL NOT NULL,
    vehicle_class TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (clip_id, track_id)
);
CREATE TABLE IF NOT EXISTS datasets (
    clip_id       TEXT NOT NULL REFERENCES clips(clip_id),
    event         TEXT NOT NULL,
    feature_names TEXT NOT NULL,
    window_size   INTEGER NOT NULL,
    sampling_rate INTEGER NOT NULL,
    PRIMARY KEY (clip_id, event)
);
CREATE TABLE IF NOT EXISTS bags (
    clip_id  TEXT NOT NULL,
    event    TEXT NOT NULL,
    bag_id   INTEGER NOT NULL,
    frame_lo INTEGER NOT NULL,
    frame_hi INTEGER NOT NULL,
    PRIMARY KEY (clip_id, event, bag_id)
);
CREATE TABLE IF NOT EXISTS instances (
    clip_id     TEXT NOT NULL,
    event       TEXT NOT NULL,
    instance_id INTEGER NOT NULL,
    bag_id      INTEGER NOT NULL,
    track_id    INTEGER NOT NULL,
    PRIMARY KEY (clip_id, event, instance_id)
);
CREATE TABLE IF NOT EXISTS labels """ + _LABELS_TABLE + """;
CREATE TABLE IF NOT EXISTS artifact_entries (
    key         TEXT PRIMARY KEY,
    clip_id     TEXT NOT NULL,
    stage       TEXT NOT NULL,
    fingerprint TEXT NOT NULL DEFAULT '',
    n_bytes     INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_artifact_clip
    ON artifact_entries (clip_id);
CREATE TABLE IF NOT EXISTS ingest_events (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    clip_id       TEXT NOT NULL,
    event         TEXT NOT NULL,
    segment_index INTEGER NOT NULL,
    state         TEXT NOT NULL,
    frame_lo      INTEGER NOT NULL DEFAULT 0,
    frame_hi      INTEGER NOT NULL DEFAULT 0,
    n_bags        INTEGER NOT NULL DEFAULT 0,
    n_instances   INTEGER NOT NULL DEFAULT 0,
    detail        TEXT NOT NULL DEFAULT '',
    created_at    TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_ingest_clip
    ON ingest_events (clip_id, event, segment_index);
CREATE TABLE IF NOT EXISTS run_metrics (
    run_id     TEXT PRIMARY KEY,
    command    TEXT NOT NULL DEFAULT '',
    created_at TEXT NOT NULL DEFAULT '',
    wall_ms    REAL NOT NULL DEFAULT 0,
    summary    TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS query_rounds (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    session_id  TEXT NOT NULL,
    query_id    TEXT NOT NULL,
    corpus_id   TEXT NOT NULL,
    event       TEXT NOT NULL,
    user_id     TEXT NOT NULL DEFAULT 'default',
    round_index INTEGER NOT NULL,
    op          TEXT NOT NULL,
    created_at  TEXT NOT NULL DEFAULT '',
    latency_ms  REAL NOT NULL DEFAULT 0,
    detail      TEXT NOT NULL DEFAULT '{}',
    spans       TEXT NOT NULL DEFAULT '[]',
    profile     TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_query_rounds_session
    ON query_rounds (session_id, round_index);
CREATE INDEX IF NOT EXISTS idx_query_rounds_query
    ON query_rounds (query_id, round_index);
CREATE TABLE IF NOT EXISTS sessions (
    session_id   TEXT PRIMARY KEY,
    user_id      TEXT NOT NULL,
    corpus_id    TEXT NOT NULL,
    event        TEXT NOT NULL,
    clip_ids     TEXT NOT NULL DEFAULT '[]',
    engine       TEXT NOT NULL DEFAULT 'mil_ocsvm',
    top_k        INTEGER NOT NULL DEFAULT 20,
    params       TEXT NOT NULL DEFAULT '{}',
    created_at   TEXT NOT NULL DEFAULT '',
    last_seen_at TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_sessions_user
    ON sessions (user_id, corpus_id, event);
"""


#: The round guard's read: one tenant's latest stored round, a search of
#: the ``labels`` key's ``(clip_id, event, user_id)`` prefix that touches
#: no other tenant's labels.
ROUND_HEAD_SQL = ("SELECT MAX(round_index) FROM labels"
                  " WHERE clip_id=? AND event=? AND user_id=?")

#: The first statement of the one-time rebuild of a ``labels`` table
#: written before the clustered layout (see ``VideoDatabase``).
CLUSTER_LABELS_SQL = "CREATE TABLE labels_clustered " + _LABELS_TABLE

#: Legal per-segment ingest states, in normal progression order.
INGEST_STATES = ("pending", "built", "appended", "failed")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _translate_sqlite_error(exc: sqlite3.Error) -> StorageError:
    """Map a raw sqlite3 error onto the library's storage taxonomy.

    Lock contention that outlived ``busy_timeout`` becomes the
    retryable :class:`DatabaseBusyError`; everything else (corruption,
    malformed schema, constraint violations on damaged catalogs)
    becomes a plain :class:`StorageError` so callers never have to
    catch ``sqlite3.*`` directly.
    """
    message = str(exc)
    lowered = message.lower()
    if isinstance(exc, sqlite3.OperationalError) and (
            "locked" in lowered or "busy" in lowered):
        return DatabaseBusyError(f"sqlite catalog busy: {message}")
    return StorageError(f"sqlite catalog error: {message}")


class _CatalogConnection:
    """Typed-error boundary around one ``sqlite3.Connection``.

    Every statement and transaction boundary translates ``sqlite3.Error``
    into :class:`StorageError`/:class:`DatabaseBusyError`, so the rest
    of the system (query sessions, streaming ingest, the sharded
    corpus's failure domain) sees one coherent error taxonomy whatever
    the backing connection does — including fault-injected ones.
    """

    def __init__(self, raw: sqlite3.Connection) -> None:
        self._raw = raw

    def execute(self, sql: str, params=()):
        try:
            return self._raw.execute(sql, params)
        except sqlite3.Error as exc:
            raise _translate_sqlite_error(exc) from exc

    def executemany(self, sql: str, rows):
        try:
            return self._raw.executemany(sql, rows)
        except sqlite3.Error as exc:
            raise _translate_sqlite_error(exc) from exc

    def executescript(self, script: str):
        try:
            return self._raw.executescript(script)
        except sqlite3.Error as exc:
            raise _translate_sqlite_error(exc) from exc

    def commit(self) -> None:
        try:
            self._raw.commit()
        except sqlite3.Error as exc:
            raise _translate_sqlite_error(exc) from exc

    def rollback(self) -> None:
        try:
            self._raw.rollback()
        except sqlite3.Error as exc:
            raise _translate_sqlite_error(exc) from exc

    def close(self) -> None:
        self._raw.close()

    def __enter__(self) -> "_CatalogConnection":
        try:
            self._raw.__enter__()
        except sqlite3.Error as exc:  # a connection already closed
            raise _translate_sqlite_error(exc) from exc
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            return self._raw.__exit__(exc_type, exc, tb)
        except sqlite3.Error as raw_exc:
            raise _translate_sqlite_error(raw_exc) from raw_exc


def connect_sqlite(path: str, *, busy_timeout_ms: int = 5000,
                   factory=None) -> sqlite3.Connection:
    """Open one catalog connection with the contention-safe pragmas.

    This is the connection factory the whole db layer funnels through:
    WAL journaling (file-backed databases only — readers never block
    the writer and vice versa, so a concurrent
    :class:`~repro.db.ingest.StreamingIngest` and open query sessions
    stop racing), ``busy_timeout`` so residual lock waits spin inside
    SQLite instead of failing instantly, and ``synchronous=NORMAL``
    (durable-enough-with-WAL fsync policy).  ``factory`` overrides the
    raw ``sqlite3.connect`` — the deterministic fault injector hooks in
    here.
    """
    raw_connect = factory or sqlite3.connect
    # Not bound to the opening thread, so VideoDatabase.close() may close
    # every thread's connection from whichever thread calls it.  The
    # stdlib sqlite3 module is compiled in serialized mode
    # (``sqlite3.threadsafety == 3``); a file-backed VideoDatabase still
    # gives each thread its own connection.
    conn = raw_connect(path, timeout=busy_timeout_ms / 1000.0,
                       check_same_thread=False)
    try:
        conn.execute("PRAGMA foreign_keys = ON")
        conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        if path != ":memory:":
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
    except sqlite3.Error as exc:
        conn.close()
        raise _translate_sqlite_error(exc) from exc
    return conn


def _floats_to_text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _text_to_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",")) if text else ()


class VideoDatabase:
    """Catalog + array store facade.

    Parameters
    ----------
    path:
        SQLite file path, or ``":memory:"`` (default) for an ephemeral
        database with an in-memory array store.  A file-backed catalog
        keeps its bulk arrays in an npz directory next to the SQLite
        file.
    busy_timeout_ms:
        How long SQLite spins on a held lock before surfacing
        :class:`~repro.errors.DatabaseBusyError` (WAL mode makes
        reader/writer contention rare; this covers writer/writer).
    connection_factory:
        Override the raw ``sqlite3.connect`` used to open the catalog
        (see :func:`connect_sqlite`); the deterministic fault injector
        (:mod:`repro.reliability.faults`) hooks in here.
    quick_check:
        Run ``PRAGMA quick_check`` on open (file-backed databases
        only) and raise :class:`~repro.errors.StorageError` on
        corruption instead of failing later mid-query.  A checked open
        also rebuilds, once, a ``labels`` table written before the
        clustered layout.  ``repro verify-db`` opens with this disabled
        so a damaged catalog can still be inspected and repaired; such
        an open leaves the layout as it finds it, and every statement
        reads and writes either layout.

    Threads may share one instance.  For a file path each calling
    thread gets its own connection, opened on its first call, so no two
    threads share transaction state (a ``BEGIN IMMEDIATE`` guard on one
    thread must not interleave with another thread's insert); WAL mode
    makes the readers/writer mix safe at the file level.  A
    ``":memory:"`` database keeps its single connection, because a
    second one would be a separate empty database.  :meth:`close`
    closes every thread's connection and may be called from any thread.
    """

    def __init__(self, path: str | Path = ":memory:", *,
                 busy_timeout_ms: int = 5000,
                 connection_factory=None,
                 quick_check: bool = True) -> None:
        self.path = str(path)
        self._metadata_version = 0
        self._busy_timeout_ms = busy_timeout_ms
        self._connection_factory = connection_factory
        self._local = (SimpleNamespace() if self.path == ":memory:"
                       else threading.local())
        self._lock = threading.Lock()
        self._conns: list[_CatalogConnection] = []
        self._closed = False
        #: The sharded corpora open over this catalog, by build key, held
        #: weakly (see :func:`repro.db.query.sharded_corpus`).
        self.corpora = weakref.WeakValueDictionary()
        checked = quick_check and self.path != ":memory:"
        if checked:
            self._quick_check()
        self._conn.executescript(_SCHEMA)
        if checked:
            self._cluster_labels()
        if self.path == ":memory:":
            self.arrays = InMemoryArrayStore()
        else:
            self.arrays = NpzArrayStore(Path(self.path).parent
                                        / (Path(self.path).stem + "_arrays"))

    @property
    def _conn(self) -> _CatalogConnection:
        """The calling thread's connection, opened on its first call."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            with self._lock:
                if self._closed:
                    raise StorageError(f"catalog {self.path!r} is closed")
                conn = _CatalogConnection(connect_sqlite(
                    self.path, busy_timeout_ms=self._busy_timeout_ms,
                    factory=self._connection_factory))
                self._conns.append(conn)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close every thread's connection; any thread may call this.

        Every later call on this catalog, on any thread, raises
        :class:`~repro.errors.StorageError`.
        """
        with self._lock:
            self._closed = True
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()

    @property
    def metadata_version(self) -> int:
        """Monotonic counter bumped by clip/track metadata mutations.

        Query sessions key their per-clip caches (e.g. vehicle classes)
        on this, so a cache survives arbitrarily many reads but is
        invalidated the moment tracks are rewritten or clips come and
        go through this object, from whichever thread.
        """
        return self._metadata_version

    def _bump_metadata_version(self) -> None:
        with self._lock:
            self._metadata_version += 1

    def __enter__(self) -> "VideoDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- clips
    def add_clip(self, record: ClipRecord) -> None:
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO clips VALUES (?,?,?,?,?,?,?,?,?)",
                (record.clip_id, record.location, record.camera,
                 record.start_time, record.fps, record.n_frames,
                 record.width, record.height, record.extra_json()),
            )

    def clip(self, clip_id: str) -> ClipRecord:
        row = self._conn.execute(
            "SELECT * FROM clips WHERE clip_id = ?", (clip_id,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no clip {clip_id!r} in database")
        return ClipRecord(
            clip_id=row[0], location=row[1], camera=row[2], start_time=row[3],
            fps=row[4], n_frames=row[5], width=row[6], height=row[7],
            extra=ClipRecord.extra_from_json(row[8]),
        )

    def clips(self, *, location: str | None = None,
              camera: str | None = None) -> list[ClipRecord]:
        """List clips, optionally filtered by metadata (the paper's
        time/place organization)."""
        sql = "SELECT clip_id FROM clips"
        clauses, params = [], []
        if location is not None:
            clauses.append("location = ?")
            params.append(location)
        if camera is not None:
            clauses.append("camera = ?")
            params.append(camera)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY clip_id"
        return [self.clip(r[0]) for r in self._conn.execute(sql, params)]

    # ------------------------------------------------------------ tracks
    def add_tracks(self, clip_id: str, tracks, *, degree: int = 4,
                   vehicle_classes: dict[int, str] | None = None) -> None:
        """Store tracks: raw points in the array store, polynomial
        trajectory models (paper Section 3.2) in the catalog."""
        self.clip(clip_id)  # must exist
        classes = vehicle_classes or {}
        rows = []
        for track in tracks:
            model = TrajectoryModel.from_track(track, degree=degree)
            rows.append((
                clip_id, track.track_id, track.first_frame, track.last_frame,
                len(track), model.degree,
                _floats_to_text(model.curve_x.coefficients),
                _floats_to_text(model.curve_y.coefficients),
                model.curve_x.shift, model.curve_x.scale,
                model.rms_error, classes.get(track.track_id, ""),
            ))
            self.arrays.save(
                f"{clip_id}/track-{track.track_id}",
                {"frames": track.frame_array(), "points": track.point_array()},
            )
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO tracks VALUES "
                "(?,?,?,?,?,?,?,?,?,?,?,?)", rows)
        self._bump_metadata_version()

    def track_records(self, clip_id: str) -> list[TrackRecord]:
        rows = self._conn.execute(
            "SELECT * FROM tracks WHERE clip_id = ? ORDER BY track_id",
            (clip_id,),
        ).fetchall()
        return [
            TrackRecord(
                clip_id=r[0], track_id=r[1], first_frame=r[2],
                last_frame=r[3], n_points=r[4], degree=r[5],
                coeff_x=_text_to_floats(r[6]), coeff_y=_text_to_floats(r[7]),
                shift=r[8], scale=r[9], rms_error=r[10], vehicle_class=r[11],
            )
            for r in rows
        ]

    def track_points(self, clip_id: str,
                     track_id: int) -> tuple[np.ndarray, np.ndarray]:
        bundle = self.arrays.load(f"{clip_id}/track-{track_id}")
        return bundle["frames"], bundle["points"]

    def vehicle_classes(self, clip_id: str) -> dict[int, str]:
        """track_id -> stored vehicle class (empty string if unknown)."""
        rows = self._conn.execute(
            "SELECT track_id, vehicle_class FROM tracks WHERE clip_id = ?",
            (clip_id,),
        ).fetchall()
        return {int(r[0]): r[1] for r in rows}

    # ---------------------------------------------------------- datasets
    def add_dataset(self, dataset: MILDataset) -> None:
        """Store a MIL dataset (bags + instances + feature matrices)."""
        self.clip(dataset.clip_id)
        instances = dataset.all_instances()
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO datasets VALUES (?,?,?,?,?)",
                (dataset.clip_id, dataset.event_name,
                 ",".join(dataset.feature_names), dataset.window_size,
                 dataset.sampling_rate),
            )
            self._conn.execute(
                "DELETE FROM bags WHERE clip_id=? AND event=?",
                (dataset.clip_id, dataset.event_name))
            self._conn.execute(
                "DELETE FROM instances WHERE clip_id=? AND event=?",
                (dataset.clip_id, dataset.event_name))
            self._conn.executemany(
                "INSERT INTO bags VALUES (?,?,?,?,?)",
                [(dataset.clip_id, dataset.event_name, b.bag_id,
                  b.frame_lo, b.frame_hi) for b in dataset.bags],
            )
            self._conn.executemany(
                "INSERT INTO instances VALUES (?,?,?,?,?)",
                [(dataset.clip_id, dataset.event_name, i.instance_id,
                  i.bag_id, i.track_id) for i in instances],
            )
        if instances:
            self.arrays.save(
                f"{dataset.clip_id}/dataset-{dataset.event_name}",
                {
                    "instance_ids": np.array(
                        [i.instance_id for i in instances]),
                    "matrices": np.stack([i.matrix for i in instances]),
                },
            )
        self._bump_metadata_version()

    def append_dataset(self, delta: MILDataset, *,
                       segment: tuple[int, int, int] | None = None) -> None:
        """Append a streamed delta to a stored dataset, exactly-once.

        ``delta`` holds newly final bags whose ids extend the stored
        dataset (the streaming emitter numbers them exactly as the batch
        pipeline would).  Re-appending the same delta is idempotent: the
        catalog rows are upserted and the array bundle is rebuilt with
        the delta's instance ids filtered out of the existing rows
        first.  When ``segment`` — ``(segment_index, frame_lo,
        frame_hi)`` — is given, an ``appended`` row lands in the
        ``ingest_events`` log *in the same transaction* as the catalog
        rows, so a killed ingest either durably appended the segment or
        left no trace of it; the resume replays it without duplicates.
        """
        self.clip(delta.clip_id)
        meta = self._conn.execute(
            "SELECT feature_names, window_size, sampling_rate FROM datasets"
            " WHERE clip_id=? AND event=?",
            (delta.clip_id, delta.event_name)).fetchone()
        if meta is not None:
            stored = (tuple(meta[0].split(",")), int(meta[1]), int(meta[2]))
            ours = (tuple(delta.feature_names), int(delta.window_size),
                    int(delta.sampling_rate))
            if stored != ours:
                raise StorageError(
                    f"dataset delta for clip {delta.clip_id!r} / event "
                    f"{delta.event_name!r} does not match the stored "
                    f"dataset: {ours} != {stored}")
        instances = delta.all_instances()
        if instances:
            key = f"{delta.clip_id}/dataset-{delta.event_name}"
            delta_ids = {i.instance_id for i in instances}
            ids = [i.instance_id for i in instances]
            mats = [i.matrix for i in instances]
            if self.arrays.exists(key):
                bundle = self.arrays.load(key)
                keep = [k for k, iid in enumerate(bundle["instance_ids"])
                        if int(iid) not in delta_ids]
                ids = [int(bundle["instance_ids"][k]) for k in keep] + ids
                mats = [bundle["matrices"][k] for k in keep] + mats
            # The bulk write lands before the catalog commit: a crash in
            # between leaves orphan matrices (harmless — readers key off
            # the catalog) and no ``appended`` row, so resume re-appends.
            self.arrays.save(key, {
                "instance_ids": np.array(ids),
                "matrices": np.stack(mats),
            })
        with self._conn:
            if meta is None:
                self._conn.execute(
                    "INSERT INTO datasets VALUES (?,?,?,?,?)",
                    (delta.clip_id, delta.event_name,
                     ",".join(delta.feature_names), delta.window_size,
                     delta.sampling_rate))
            self._conn.executemany(
                "INSERT OR REPLACE INTO bags VALUES (?,?,?,?,?)",
                [(delta.clip_id, delta.event_name, b.bag_id,
                  b.frame_lo, b.frame_hi) for b in delta.bags])
            self._conn.executemany(
                "INSERT OR REPLACE INTO instances VALUES (?,?,?,?,?)",
                [(delta.clip_id, delta.event_name, i.instance_id,
                  i.bag_id, i.track_id) for i in instances])
            if segment is not None:
                seg, lo, hi = segment
                self._conn.execute(
                    "INSERT INTO ingest_events (clip_id, event,"
                    " segment_index, state, frame_lo, frame_hi, n_bags,"
                    " n_instances, detail, created_at)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?)",
                    (delta.clip_id, delta.event_name, int(seg), "appended",
                     int(lo), int(hi), len(delta.bags), len(instances),
                     "", _utc_now()))
        self._bump_metadata_version()

    # ----------------------------------------------------- ingest journal
    def record_ingest_event(self, clip_id: str, event_name: str,
                            segment_index: int, state: str, *,
                            frame_lo: int = 0, frame_hi: int = 0,
                            n_bags: int = 0, n_instances: int = 0,
                            detail: str = "") -> None:
        """Append one row to the per-segment ingest journal.

        The journal is append-only; the *latest* row per ``(clip, event,
        segment)`` is that segment's current state (see
        :meth:`ingest_state`).  ``appended`` rows are normally written
        by :meth:`append_dataset` inside the catalog transaction — use
        this directly for ``pending``/``built``/``failed`` transitions.
        """
        if state not in INGEST_STATES:
            raise StorageError(
                f"unknown ingest state {state!r}; expected one of "
                f"{INGEST_STATES}")
        with self._conn:
            self._conn.execute(
                "INSERT INTO ingest_events (clip_id, event, segment_index,"
                " state, frame_lo, frame_hi, n_bags, n_instances, detail,"
                " created_at) VALUES (?,?,?,?,?,?,?,?,?,?)",
                (clip_id, event_name, int(segment_index), state,
                 int(frame_lo), int(frame_hi), int(n_bags),
                 int(n_instances), detail, _utc_now()))

    def ingest_state(self, clip_id: str, event_name: str) -> dict[int, dict]:
        """Current state per segment: latest journal row wins.

        Returns ``{segment_index: {state, frame_lo, frame_hi, n_bags,
        n_instances, detail, created_at}}`` — the resume scan skips
        segments whose latest state is ``appended``.
        """
        rows = self._conn.execute(
            "SELECT segment_index, state, frame_lo, frame_hi, n_bags,"
            " n_instances, detail, created_at FROM ingest_events"
            " WHERE clip_id=? AND event=? ORDER BY id",
            (clip_id, event_name)).fetchall()
        state: dict[int, dict] = {}
        for seg, st, lo, hi, nb, ni, detail, created in rows:
            state[int(seg)] = {
                "state": st, "frame_lo": int(lo), "frame_hi": int(hi),
                "n_bags": int(nb), "n_instances": int(ni),
                "detail": detail, "created_at": created,
            }
        return state

    def ingest_log(self, clip_id: str,
                   event_name: str | None = None) -> list[dict]:
        """Full append-only journal for a clip, in write order."""
        sql = ("SELECT event, segment_index, state, frame_lo, frame_hi,"
               " n_bags, n_instances, detail, created_at FROM ingest_events"
               " WHERE clip_id=?")
        params: list = [clip_id]
        if event_name is not None:
            sql += " AND event=?"
            params.append(event_name)
        sql += " ORDER BY id"
        return [
            {"event": r[0], "segment_index": int(r[1]), "state": r[2],
             "frame_lo": int(r[3]), "frame_hi": int(r[4]),
             "n_bags": int(r[5]), "n_instances": int(r[6]),
             "detail": r[7], "created_at": r[8]}
            for r in self._conn.execute(sql, params).fetchall()
        ]

    def dataset(self, clip_id: str, event_name: str) -> MILDataset:
        """Reconstruct a stored MIL dataset."""
        meta = self._conn.execute(
            "SELECT feature_names, window_size, sampling_rate FROM datasets"
            " WHERE clip_id=? AND event=?", (clip_id, event_name),
        ).fetchone()
        if meta is None:
            raise StorageError(
                f"no dataset for clip {clip_id!r} / event {event_name!r}"
            )
        feature_names = tuple(meta[0].split(","))
        matrices: dict[int, np.ndarray] = {}
        key = f"{clip_id}/dataset-{event_name}"
        if self.arrays.exists(key):
            bundle = self.arrays.load(key)
            for iid, matrix in zip(bundle["instance_ids"],
                                   bundle["matrices"]):
                matrices[int(iid)] = matrix
        inst_rows = self._conn.execute(
            "SELECT instance_id, bag_id, track_id FROM instances"
            " WHERE clip_id=? AND event=? ORDER BY instance_id",
            (clip_id, event_name),
        ).fetchall()
        missing = [iid for iid, _, _ in inst_rows if iid not in matrices]
        if missing:
            raise StorageError(
                f"array bundle for clip {clip_id!r} / event {event_name!r}"
                f" is missing {len(missing)} instance matrice(s)"
                f" (first: {missing[0]}) — run 'repro verify-db --db"
                f" {self.path} --repair' to prune or rebuild")
        by_bag: dict[int, list[Instance]] = {}
        for iid, bag_id, track_id in inst_rows:
            by_bag.setdefault(bag_id, []).append(
                Instance(instance_id=iid, bag_id=bag_id, track_id=track_id,
                         matrix=matrices[iid])
            )
        bag_rows = self._conn.execute(
            "SELECT bag_id, frame_lo, frame_hi FROM bags"
            " WHERE clip_id=? AND event=? ORDER BY bag_id",
            (clip_id, event_name),
        ).fetchall()
        bags = [
            Bag(bag_id=bid, clip_id=clip_id, frame_lo=lo, frame_hi=hi,
                instances=tuple(by_bag.get(bid, ())))
            for bid, lo, hi in bag_rows
        ]
        return MILDataset(clip_id=clip_id, event_name=event_name,
                          feature_names=feature_names,
                          window_size=meta[1], sampling_rate=meta[2],
                          bags=bags)

    def dataset_meta(self, clip_id: str, event_name: str) -> dict:
        """Catalog-only summary of a stored dataset (no bulk-array read).

        Returns ``{clip_id, event_name, feature_names, window_size,
        sampling_rate, n_bags, n_instances}``.  The sharded retrieval
        corpus builds its per-clip :class:`ShardSpec` table from this —
        fixing every shard's global id range up front — and only loads
        the instance matrices of shards that are actually scored.
        """
        meta = self._conn.execute(
            "SELECT feature_names, window_size, sampling_rate FROM datasets"
            " WHERE clip_id=? AND event=?", (clip_id, event_name),
        ).fetchone()
        if meta is None:
            raise StorageError(
                f"no dataset for clip {clip_id!r} / event {event_name!r}"
            )
        n_bags = self._conn.execute(
            "SELECT COUNT(*) FROM bags WHERE clip_id=? AND event=?",
            (clip_id, event_name)).fetchone()[0]
        n_instances = self._conn.execute(
            "SELECT COUNT(*) FROM instances WHERE clip_id=? AND event=?",
            (clip_id, event_name)).fetchone()[0]
        return {
            "clip_id": clip_id,
            "event_name": event_name,
            "feature_names": tuple(meta[0].split(",")),
            "window_size": int(meta[1]),
            "sampling_rate": int(meta[2]),
            "n_bags": int(n_bags),
            "n_instances": int(n_instances),
        }

    def events_for(self, clip_id: str) -> list[str]:
        rows = self._conn.execute(
            "SELECT event FROM datasets WHERE clip_id=? ORDER BY event",
            (clip_id,)).fetchall()
        return [r[0] for r in rows]

    # ------------------------------------------------------------ labels
    def add_labels(self, labels: list[LabelRecord], *,
                   expect_round: int | None = None) -> None:
        """Persist one batch of relevance-feedback labels.

        With ``expect_round`` set, the insert becomes an optimistic
        concurrency check: inside a single ``BEGIN IMMEDIATE``
        transaction (so no other writer can slip between the check and
        the insert) the stored history's next round for the batch's
        ``(clip_id, event, user_id)`` head must equal ``expect_round``,
        otherwise nothing is written and
        :class:`~repro.errors.SessionConflictError` is raised.  This is
        what stops two workers that resumed the same session from both
        committing "round N" and silently merging their rounds.
        """
        rows = [(rec.clip_id, rec.event_name, rec.bag_id, rec.user_id,
                 rec.round_index, int(rec.relevant)) for rec in labels]
        if expect_round is None:
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO labels VALUES (?,?,?,?,?,?)",
                    rows)
            return
        heads = {(rec.clip_id, rec.event_name, rec.user_id)
                 for rec in labels}
        if len(heads) != 1:
            raise ConfigurationError(
                "add_labels(expect_round=...) guards exactly one "
                f"session's history; got {len(heads)} distinct "
                "(clip_id, event, user_id) heads")
        clip_id, event_name, user_id = next(iter(heads))
        # BEGIN IMMEDIATE takes the write lock *before* the guard
        # SELECT; a plain ``with self._conn:`` would autocommit the
        # SELECT (legacy isolation) and leave a check-then-insert race
        # window between processes.
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                ROUND_HEAD_SQL, (clip_id, event_name, user_id)).fetchone()
            stored_next = (row[0] + 1) if row and row[0] is not None else 0
            if stored_next != expect_round:
                raise SessionConflictError(
                    session_id_for(user_id, clip_id, event_name),
                    expected_round=expect_round,
                    stored_next_round=stored_next)
            self._conn.executemany(
                "INSERT OR REPLACE INTO labels VALUES (?,?,?,?,?,?)", rows)
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise

    def labels(self, clip_id: str, event_name: str,
               user_id: str | None = None) -> list[LabelRecord]:
        sql = ("SELECT clip_id, event, bag_id, user_id, round_index,"
               " relevant FROM labels WHERE clip_id=? AND event=?")
        params: list = [clip_id, event_name]
        if user_id is not None:
            sql += " AND user_id=?"
            params.append(user_id)
        sql += " ORDER BY round_index, bag_id"
        return [
            LabelRecord(clip_id=r[0], event_name=r[1], bag_id=r[2],
                        user_id=r[3], round_index=r[4], relevant=bool(r[5]))
            for r in self._conn.execute(sql, params)
        ]

    def latest_labels(self, clip_id: str, event_name: str,
                      user_id: str) -> tuple[dict[int, bool], int]:
        """Latest label per bag for one user (later rounds win), and the
        next round the history expects (0 when it is empty).

        One statement, so both come from one snapshot: a round another
        worker commits cannot land between the labels and the round.
        SQLite takes the bare ``relevant`` column from the row holding
        each bag's ``MAX(round_index)``.
        """
        rows = self._conn.execute(
            "SELECT bag_id, relevant, MAX(round_index) FROM labels"
            " WHERE clip_id=? AND event=? AND user_id=? GROUP BY bag_id",
            (clip_id, event_name, user_id)).fetchall()
        latest = {bag_id: bool(relevant) for bag_id, relevant, _ in rows}
        return latest, max((r[2] for r in rows), default=-1) + 1

    def accumulated_labels(self, clip_id: str, event_name: str,
                           user_id: str) -> dict[int, bool]:
        """Latest label per bag for one user (later rounds win)."""
        return self.latest_labels(clip_id, event_name, user_id)[0]

    # ---------------------------------------------------------- sessions
    def register_session(self, record: SessionRecord) -> None:
        """Upsert a durable session description (service resume point).

        The first registration's ``created_at`` is preserved; repeated
        registrations (a worker re-opening the session) refresh
        ``last_seen_at`` and the engine configuration.
        """
        now = _utc_now()
        with self._conn:
            self._conn.execute(
                "INSERT INTO sessions VALUES (?,?,?,?,?,?,?,?,?,?)"
                " ON CONFLICT(session_id) DO UPDATE SET"
                " engine=excluded.engine, top_k=excluded.top_k,"
                " params=excluded.params,"
                " last_seen_at=excluded.last_seen_at",
                (record.session_id, record.user_id, record.corpus_id,
                 record.event_name, record.clip_ids_json(), record.engine,
                 int(record.top_k), record.params_json(),
                 record.created_at or now, record.last_seen_at or now))

    def session_record(self, session_id: str) -> SessionRecord:
        row = self._conn.execute(
            "SELECT session_id, user_id, corpus_id, event, clip_ids,"
            " engine, top_k, params, created_at, last_seen_at"
            " FROM sessions WHERE session_id = ?", (session_id,)).fetchone()
        if row is None:
            raise StorageError(f"no session record {session_id!r}")
        return SessionRecord(
            session_id=row[0], user_id=row[1], corpus_id=row[2],
            event_name=row[3], clip_ids=tuple(json.loads(row[4])),
            engine=row[5], top_k=int(row[6]), params=json.loads(row[7]),
            created_at=row[8], last_seen_at=row[9])

    def session_records(self) -> list[SessionRecord]:
        ids = [r[0] for r in self._conn.execute(
            "SELECT session_id FROM sessions ORDER BY session_id")]
        return [self.session_record(sid) for sid in ids]

    # --------------------------------------------------- artifact store
    def record_artifact_entries(self, entries) -> None:
        """Persist artifact-store metadata (pipeline cache provenance).

        ``entries`` is what ``ArtifactStore.entries()`` returns: dicts
        with ``key`` plus optional ``clip_id``/``stage``/``fingerprint``/
        ``n_bytes``.  The catalog row makes cache contents queryable next
        to the clips they derive from (and survives store directory
        moves).
        """
        rows = [
            (e["key"], str(e.get("clip_id", "")), str(e.get("stage", "")),
             str(e.get("fingerprint", "")), int(e.get("n_bytes", 0)))
            for e in entries
        ]
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO artifact_entries VALUES "
                "(?,?,?,?,?)", rows)

    def artifact_entries(self, clip_id: str | None = None) -> list[dict]:
        """Recorded artifact-store entries, optionally for one clip."""
        sql = ("SELECT key, clip_id, stage, fingerprint, n_bytes "
               "FROM artifact_entries")
        params: list = []
        if clip_id is not None:
            sql += " WHERE clip_id = ?"
            params.append(clip_id)
        sql += " ORDER BY clip_id, stage, key"
        return [
            {"key": r[0], "clip_id": r[1], "stage": r[2],
             "fingerprint": r[3], "n_bytes": r[4]}
            for r in self._conn.execute(sql, params)
        ]

    # ------------------------------------------------------ run metrics
    def record_run_metrics(self, run_id: str, command: str,
                           summary: dict, *, created_at: str = "",
                           wall_ms: float = 0.0) -> None:
        """Persist one run's telemetry summary (see
        :func:`repro.obs.report.run_summary`); ``repro stats`` reads it
        back.  Re-recording a ``run_id`` overwrites it."""
        if not run_id:
            raise StorageError("run_id must be non-empty")
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO run_metrics VALUES (?,?,?,?,?)",
                (run_id, command, created_at, float(wall_ms),
                 json.dumps(summary, sort_keys=True)),
            )

    def run_metrics(self, run_id: str | None = None) -> list[dict]:
        """Stored run summaries, newest first (all, or one by id)."""
        sql = ("SELECT run_id, command, created_at, wall_ms, summary "
               "FROM run_metrics")
        params: list = []
        if run_id is not None:
            sql += " WHERE run_id = ?"
            params.append(run_id)
        sql += " ORDER BY created_at DESC, run_id DESC"
        return [
            {"run_id": r[0], "command": r[1], "created_at": r[2],
             "wall_ms": r[3], "summary": json.loads(r[4])}
            for r in self._conn.execute(sql, params)
        ]

    # ---------------------------------------------------- quality ledger
    def record_query_round(self, *, session_id: str, query_id: str,
                           corpus_id: str, event: str, round_index: int,
                           op: str, user_id: str = "default",
                           latency_ms: float = 0.0,
                           detail: dict | None = None,
                           spans: list | None = None,
                           profile: str = "",
                           created_at: str = "") -> None:
        """Append one round to the quality ledger.

        ``detail`` is the per-round quality record (stage latency
        breakdown, cache hit rates, nomination recall, coverage);
        ``spans`` the serialized span events of the round so ``repro
        explain`` can rebuild the trace tree offline; ``profile`` a
        collapsed-stack tail profile when one was captured.  Append-only
        by design — re-running a round adds a row, history is evidence.
        """
        if not session_id or not query_id:
            raise StorageError(
                "session_id and query_id must be non-empty")
        with self._conn:
            self._conn.execute(
                "INSERT INTO query_rounds (session_id, query_id, "
                "corpus_id, event, user_id, round_index, op, created_at, "
                "latency_ms, detail, spans, profile) "
                "VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (session_id, query_id, corpus_id, event, user_id,
                 int(round_index), op, created_at or _utc_now(),
                 float(latency_ms),
                 json.dumps(detail or {}, sort_keys=True),
                 json.dumps(spans or []),
                 profile),
            )

    def query_rounds(self, *, session_id: str | None = None,
                     query_id: str | None = None,
                     round_index: int | None = None) -> list[dict]:
        """Ledger rows in recording order, optionally filtered."""
        sql = ("SELECT session_id, query_id, corpus_id, event, user_id, "
               "round_index, op, created_at, latency_ms, detail, spans, "
               "profile FROM query_rounds")
        clauses, params = [], []
        if session_id is not None:
            clauses.append("session_id = ?")
            params.append(session_id)
        if query_id is not None:
            clauses.append("query_id = ?")
            params.append(query_id)
        if round_index is not None:
            clauses.append("round_index = ?")
            params.append(int(round_index))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        return [
            {"session_id": r[0], "query_id": r[1], "corpus_id": r[2],
             "event": r[3], "user_id": r[4], "round_index": r[5],
             "op": r[6], "created_at": r[7], "latency_ms": r[8],
             "detail": json.loads(r[9]), "spans": json.loads(r[10]),
             "profile": r[11]}
            for r in self._conn.execute(sql, params)
        ]

    def query_sessions(self) -> list[dict]:
        """One row per ledger session: identity, round count, last seen."""
        sql = ("SELECT session_id, query_id, corpus_id, event, user_id, "
               "COUNT(*), MAX(round_index), MAX(created_at) "
               "FROM query_rounds "
               "GROUP BY session_id, query_id "
               "ORDER BY MAX(id)")
        return [
            {"session_id": r[0], "query_id": r[1], "corpus_id": r[2],
             "event": r[3], "user_id": r[4], "rounds": r[5],
             "last_round": r[6], "last_at": r[7]}
            for r in self._conn.execute(sql)
        ]

    # ------------------------------------------------------- maintenance
    def _quick_check(self) -> None:
        """Fail fast on a corrupt catalog (``PRAGMA quick_check``)."""
        problems = self._run_quick_check()
        if problems != "ok":
            raise StorageError(
                f"database {self.path!r} failed quick_check: "
                f"{problems} — run 'repro verify-db "
                f"--db {self.path}' to inspect and repair")

    def _labels_clustered(self) -> bool:
        """Whether ``labels`` has the clustered (``WITHOUT ROWID``) layout."""
        rows = self._conn.execute(
            "SELECT sql FROM sqlite_master"
            " WHERE type='table' AND name='labels'").fetchall()
        return "WITHOUT ROWID" in rows[0][0].upper()

    def _cluster_labels(self) -> None:
        """Rebuild a ``labels`` table written before the clustered layout.

        One ``BEGIN IMMEDIATE`` transaction copies every row into the
        clustered table, drops the old table (its indexes go with it)
        and renames the new one; each statement is its own ``execute``,
        because ``executescript`` would commit first.  The layout is
        checked again under the write lock, since another connection
        may have rebuilt the table while this one waited.  A rebuild
        that fails rolls back and leaves the old layout, which every
        statement still reads and writes; the next checked open tries
        again.
        """
        if self._labels_clustered():
            return
        from repro.obs import get_telemetry

        obs = get_telemetry()
        started = time.perf_counter()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if self._labels_clustered():
                    self._conn.rollback()
                    return
                self._conn.execute(CLUSTER_LABELS_SQL)
                copied = self._conn.execute(
                    "INSERT INTO labels_clustered SELECT clip_id, event,"
                    " bag_id, user_id, round_index, relevant FROM labels"
                ).rowcount
                self._conn.execute("DROP TABLE labels")
                self._conn.execute(
                    "ALTER TABLE labels_clustered RENAME TO labels")
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        except StorageError as exc:
            obs.event("db.labels_cluster_failed", level="warning",
                      path=self.path, reason=str(exc))
            return
        obs.event("db.labels_clustered", path=self.path, rows=copied,
                  wall_ms=round((time.perf_counter() - started) * 1000.0,
                                3))

    def _run_quick_check(self) -> str:
        """``PRAGMA quick_check`` as a string: ``"ok"`` or the problems.

        Severe corruption makes the pragma itself raise instead of
        returning problem rows; either way the caller gets a report,
        not an exception — ``verify-db`` must work on exactly the
        databases that are broken.
        """
        try:
            rows = [r[0] for r in
                    self._conn.execute("PRAGMA quick_check").fetchall()]
        except StorageError as exc:
            return str(exc)
        return "ok" if rows == ["ok"] else "; ".join(rows[:5])

    def verify(self, *, repair: bool = False,
               artifact_store=None) -> dict:
        """Cross-check the catalog against the bulk-array store.

        Checks, per stored dataset, that every catalog instance row has
        its feature matrix in the array bundle and vice versa (the
        torn state a crash between the bulk-array write and the catalog
        commit can leave), plus a fresh ``PRAGMA quick_check``.

        With ``repair=True`` damaged datasets are rebuilt: preferably
        from the content-addressed pipeline artifact store (pass the
        :class:`~repro.pipeline.store.DiskArtifactStore` whose
        ``windows``-stage entries were recorded via
        :meth:`record_artifact_entries` — the stored
        :class:`MILDataset` is re-added wholesale), otherwise by
        pruning: orphan matrices are dropped from the bundle and
        catalog rows whose matrices are gone are deleted, which
        restores loadability at the cost of the missing instances.

        Returns a report dict: ``{quick_check, datasets_checked,
        issues: [{clip_id, event, problem, missing_matrices,
        orphan_matrices, action}], repaired, healthy}``.
        """
        from repro.obs import get_telemetry

        obs = get_telemetry()
        report: dict = {"quick_check": self._run_quick_check(),
                        "datasets_checked": 0,
                        "issues": [], "repaired": 0}
        pairs = self._conn.execute(
            "SELECT clip_id, event FROM datasets"
            " ORDER BY clip_id, event").fetchall()
        for clip_id, event in pairs:
            report["datasets_checked"] += 1
            issue = self._verify_dataset(clip_id, event)
            if issue is None:
                continue
            issue["action"] = "reported"
            if repair:
                issue["action"] = self._repair_dataset(
                    clip_id, event, issue, artifact_store)
                if issue["action"] != "reported":
                    report["repaired"] += 1
            obs.event("db.dataset_damaged", level="warning",
                      clip=clip_id, event_name=event,
                      problem=issue["problem"], action=issue["action"])
            report["issues"].append(issue)
        report["healthy"] = (report["quick_check"] == "ok"
                             and not report["issues"])
        return report

    def _verify_dataset(self, clip_id: str, event: str) -> dict | None:
        """One dataset's catalog-vs-bundle consistency; None if healthy."""
        catalog_ids = {
            int(r[0]) for r in self._conn.execute(
                "SELECT instance_id FROM instances"
                " WHERE clip_id=? AND event=?", (clip_id, event))
        }
        key = f"{clip_id}/dataset-{event}"
        issue = {"clip_id": clip_id, "event": event,
                 "missing_matrices": 0, "orphan_matrices": 0}
        if not self.arrays.exists(key):
            if not catalog_ids:
                return None  # empty dataset needs no bundle
            issue.update(problem="missing-bundle",
                         missing_matrices=len(catalog_ids))
            return issue
        try:
            bundle_ids = {int(i)
                          for i in self.arrays.load(key)["instance_ids"]}
        except (StorageError, OSError, KeyError, ValueError) as exc:
            issue.update(problem=f"unreadable-bundle ({exc})",
                         missing_matrices=len(catalog_ids))
            return issue
        missing = catalog_ids - bundle_ids
        orphans = bundle_ids - catalog_ids
        if not missing and not orphans:
            return None
        issue.update(problem="catalog-bundle-mismatch",
                     missing_matrices=len(missing),
                     orphan_matrices=len(orphans))
        return issue

    def _repair_dataset(self, clip_id: str, event: str, issue: dict,
                        artifact_store) -> str:
        """Repair one damaged dataset; returns the action taken."""
        if artifact_store is not None:
            dataset = self._dataset_from_artifacts(
                clip_id, event, artifact_store)
            if dataset is not None:
                self.add_dataset(dataset)
                return "rebuilt-from-artifacts"
        # Prune to the intersection: keep only instances whose catalog
        # row AND matrix both survive, so dataset() loads again.
        key = f"{clip_id}/dataset-{event}"
        keep_ids: set[int] = set()
        if self.arrays.exists(key):
            try:
                bundle = self.arrays.load(key)
            except (StorageError, OSError):
                bundle = None
            if bundle is not None:
                catalog_ids = {
                    int(r[0]) for r in self._conn.execute(
                        "SELECT instance_id FROM instances"
                        " WHERE clip_id=? AND event=?", (clip_id, event))
                }
                keep = [k for k, iid in enumerate(bundle["instance_ids"])
                        if int(iid) in catalog_ids]
                keep_ids = {int(bundle["instance_ids"][k]) for k in keep}
                if keep:
                    self.arrays.save(key, {
                        "instance_ids": np.array(
                            [int(bundle["instance_ids"][k]) for k in keep]),
                        "matrices": np.stack(
                            [bundle["matrices"][k] for k in keep]),
                    })
                else:
                    self.arrays.delete(key)
        with self._conn:
            if keep_ids:
                placeholders = ",".join("?" * len(keep_ids))
                self._conn.execute(
                    f"DELETE FROM instances WHERE clip_id=? AND event=?"
                    f" AND instance_id NOT IN ({placeholders})",
                    (clip_id, event, *sorted(keep_ids)))
            else:
                self._conn.execute(
                    "DELETE FROM instances WHERE clip_id=? AND event=?",
                    (clip_id, event))
        self._bump_metadata_version()
        return "pruned"

    def _dataset_from_artifacts(self, clip_id: str, event: str,
                                store) -> MILDataset | None:
        """Recover a clip's dataset from the pipeline artifact store.

        Uses the ``artifact_entries`` provenance rows (stage
        ``windows``) recorded at ingest time; the stored artifact *is*
        the :class:`MILDataset`, so a matching one rebuilds the catalog
        and bundle exactly.
        """
        for entry in self.artifact_entries(clip_id):
            if entry["stage"] != "windows":
                continue
            try:
                candidate = store.load(entry["key"])
            except (StorageError, OSError):
                continue
            if (isinstance(candidate, MILDataset)
                    and candidate.clip_id == clip_id
                    and candidate.event_name == event):
                return candidate
        return None

    def _array_keys_for(self, clip_id: str) -> list[str]:
        prefix = f"{clip_id}/"
        return [k for k in self.arrays.keys() if k.startswith(prefix)]

    def delete_clip(self, clip_id: str) -> None:
        """Remove a clip and everything derived from it.

        Deletes catalog rows (tracks, datasets, bags, instances, labels,
        the clip itself) and the clip's bulk arrays.  Raises
        :class:`StorageError` if the clip does not exist.
        """
        self.clip(clip_id)  # existence check
        with self._conn:
            for table in ("labels", "instances", "bags", "datasets",
                          "tracks", "artifact_entries"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE clip_id = ?", (clip_id,))
            self._conn.execute("DELETE FROM clips WHERE clip_id = ?",
                               (clip_id,))
        for key in self._array_keys_for(clip_id):
            self.arrays.delete(key)
        self._bump_metadata_version()

    def export_clip(self, clip_id: str, path: str | Path) -> None:
        """Write one clip (catalog rows + arrays) to a portable npz file."""
        record = self.clip(clip_id)
        manifest = {
            "format": "repro-clip-bundle-v1",
            "clip": {
                "clip_id": record.clip_id, "location": record.location,
                "camera": record.camera, "start_time": record.start_time,
                "fps": record.fps, "n_frames": record.n_frames,
                "width": record.width, "height": record.height,
                "extra": record.extra,
            },
            "tracks": [
                r for r in self._conn.execute(
                    "SELECT * FROM tracks WHERE clip_id=?", (clip_id,))
            ],
            "datasets": [
                r for r in self._conn.execute(
                    "SELECT * FROM datasets WHERE clip_id=?", (clip_id,))
            ],
            "bags": [
                r for r in self._conn.execute(
                    "SELECT * FROM bags WHERE clip_id=?", (clip_id,))
            ],
            "instances": [
                r for r in self._conn.execute(
                    "SELECT * FROM instances WHERE clip_id=?", (clip_id,))
            ],
            "labels": [
                r for r in self._conn.execute(
                    "SELECT * FROM labels WHERE clip_id=?", (clip_id,))
            ],
        }
        payload: dict[str, np.ndarray] = {
            "manifest": np.frombuffer(
                json.dumps(manifest).encode("utf-8"), dtype=np.uint8),
        }
        for key in self._array_keys_for(clip_id):
            bundle = self.arrays.load(key)
            for name, array in bundle.items():
                payload[f"array::{key}::{name}"] = array
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)

    def import_clip(self, path: str | Path, *,
                    replace: bool = False) -> ClipRecord:
        """Load a clip bundle written by :meth:`export_clip`."""
        with np.load(path) as bundle:
            manifest = json.loads(bytes(bundle["manifest"]).decode("utf-8"))
            if manifest.get("format") != "repro-clip-bundle-v1":
                raise StorageError(
                    f"{path} is not a repro clip bundle"
                )
            clip_id = manifest["clip"]["clip_id"]
            exists = self._conn.execute(
                "SELECT 1 FROM clips WHERE clip_id=?", (clip_id,)
            ).fetchone()
            if exists:
                if not replace:
                    raise StorageError(
                        f"clip {clip_id!r} already exists "
                        f"(pass replace=True to overwrite)"
                    )
                self.delete_clip(clip_id)
            record = ClipRecord(**manifest["clip"])
            self.add_clip(record)
            with self._conn:
                for table in ("tracks", "datasets", "bags", "instances",
                              "labels"):
                    rows = [tuple(r) for r in manifest[table]]
                    if not rows:
                        continue
                    placeholders = ",".join("?" * len(rows[0]))
                    self._conn.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        rows)
            arrays: dict[str, dict[str, np.ndarray]] = {}
            for name in bundle.files:
                if not name.startswith("array::"):
                    continue
                _, key, array_name = name.split("::", 2)
                arrays.setdefault(key, {})[array_name] = bundle[name]
            for key, named in arrays.items():
                self.arrays.save(key, named)
        self._bump_metadata_version()
        return record

    # ------------------------------------------------------------ ingest
    def ingest_simulation(self, result, tracks, dataset,
                          *, start_time: str = "",
                          vehicle_classes: dict[int, str] | None = None
                          ) -> ClipRecord:
        """Convenience: store a simulated clip + tracks + MIL dataset."""
        record = ClipRecord(
            clip_id=result.name,
            location=str(result.metadata.get("location", "")),
            camera=str(result.metadata.get("camera", "")),
            start_time=start_time,
            fps=25.0,
            n_frames=result.n_frames,
            width=result.width,
            height=result.height,
            extra={"scenario": result.metadata.get("scenario", "")},
        )
        self.add_clip(record)
        self.add_tracks(record.clip_id, tracks,
                        vehicle_classes=vehicle_classes)
        self.add_dataset(dataset)
        return record

