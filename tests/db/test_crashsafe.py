"""Crash-safe catalog: pragmas, quick_check, verify()/repair.

The catalog must (a) open in WAL mode with a busy timeout so concurrent
ingest and query sessions contend gracefully, (b) refuse to serve a
corrupt file at open time with an actionable error, and (c) be able to
diagnose and repair torn datasets — from the content-addressed artifact
store when provenance exists, by pruning otherwise.
"""

import sqlite3

import numpy as np
import pytest

from repro.db import ClipRecord, VideoDatabase
from repro.db.database import CLUSTER_LABELS_SQL
from repro.errors import StorageError
from repro.pipeline import MemoryArtifactStore
from repro.reliability import FaultInjector, FaultPlan, FaultRule

from tests.core.test_sharded import _clip
from tests.db.test_session_conflicts import (
    label_history,
    label_layout,
    label_reads,
    old_layout_catalog,
)

PAGE = 4096


def _stored(db, clip_id="a", n_bags=8, seed=1):
    dataset = _clip(clip_id, n_bags, seed=seed)
    db.add_clip(ClipRecord(clip_id=clip_id, fps=25.0, n_frames=n_bags * 20,
                           width=320, height=240))
    db.add_dataset(dataset)
    return dataset


def _corrupt_leaf_page(path) -> None:
    """Plant free-space corruption in one table-leaf page.

    Overwrites the first-freeblock pointer (page header bytes 1-2) of a
    leaf b-tree page past the schema, which ``PRAGMA quick_check``
    reports as problem rows without the pragma itself erroring out.
    """
    data = bytearray(path.read_bytes())
    for page_start in range(PAGE * 4, len(data), PAGE):
        if data[page_start] == 0x0D:  # table leaf page
            data[page_start + 1 : page_start + 3] = b"\x0f\xff"
            path.write_bytes(bytes(data))
            return
    raise AssertionError("no leaf page found to corrupt")


def _filler(path, rows=200):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE filler (id INTEGER PRIMARY KEY, blob BLOB)")
    conn.executemany("INSERT INTO filler (blob) VALUES (?)",
                     [(b"x" * 1024,) for _ in range(rows)])
    conn.commit()
    conn.close()


class TestPragmas:
    def test_file_backed_db_runs_wal_with_busy_timeout(self, tmp_path):
        db = VideoDatabase(tmp_path / "v.db")
        assert db._conn.execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        assert db._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == 5000
        # synchronous=NORMAL == 1
        assert db._conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        db.close()

    def test_busy_timeout_configurable(self, tmp_path):
        db = VideoDatabase(tmp_path / "v.db", busy_timeout_ms=250)
        assert db._conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == 250
        db.close()

    def test_memory_db_skips_wal(self):
        db = VideoDatabase()
        assert db._conn.execute(
            "PRAGMA journal_mode").fetchone()[0] == "memory"


class TestQuickCheck:
    def test_corrupt_file_rejected_at_open(self, tmp_path):
        path = tmp_path / "v.db"
        VideoDatabase(path).close()
        _filler(path)
        _corrupt_leaf_page(path)
        with pytest.raises(StorageError, match="quick_check"):
            VideoDatabase(path)
        # The error points at the repair tool.
        with pytest.raises(StorageError, match="verify-db"):
            VideoDatabase(path)

    def test_quick_check_off_allows_inspection(self, tmp_path):
        path = tmp_path / "v.db"
        VideoDatabase(path).close()
        _filler(path)
        _corrupt_leaf_page(path)
        db = VideoDatabase(path, quick_check=False)
        report = db.verify()
        assert report["quick_check"] != "ok"
        assert not report["healthy"]
        db.close()

    def test_healthy_file_opens_clean(self, tmp_path):
        path = tmp_path / "v.db"
        VideoDatabase(path).close()
        db = VideoDatabase(path)
        assert db.verify()["healthy"]
        db.close()


class TestVerifyRepair:
    def test_healthy_dataset_reports_clean(self):
        db = VideoDatabase()
        _stored(db)
        report = db.verify()
        assert report == {"quick_check": "ok", "datasets_checked": 1,
                          "issues": [], "repaired": 0, "healthy": True}

    def test_missing_bundle_load_raises_storage_error(self):
        # A missing bundle must surface as StorageError — the shard
        # boundary classifies that into ShardUnavailableError so
        # degraded sessions quarantine the shard instead of crashing
        # on a raw KeyError.
        db = VideoDatabase()
        _stored(db)
        db.arrays.delete("a/dataset-accident")
        with pytest.raises(StorageError, match="missing 16 instance"):
            db.dataset("a", "accident")

    def test_missing_bundle_detected_and_pruned(self):
        db = VideoDatabase()
        _stored(db)
        db.arrays.delete("a/dataset-accident")
        report = db.verify()
        assert [i["problem"] for i in report["issues"]] == ["missing-bundle"]
        assert report["issues"][0]["action"] == "reported"
        assert not report["healthy"]

        report = db.verify(repair=True)
        assert report["repaired"] == 1
        assert report["issues"][0]["action"] == "pruned"
        # Pruning restores loadability at the cost of the lost rows.
        stored = db.dataset("a", "accident")
        assert stored.n_instances == 0
        assert db.verify()["healthy"]

    def test_torn_bundle_pruned_to_intersection(self):
        db = VideoDatabase()
        dataset = _stored(db)
        key = "a/dataset-accident"
        bundle = db.arrays.load(key)
        db.arrays.save(key, {  # drop the last 3 matrices: a torn write
            "instance_ids": bundle["instance_ids"][:-3],
            "matrices": bundle["matrices"][:-3],
        })
        report = db.verify(repair=True)
        assert report["issues"][0]["problem"] == "catalog-bundle-mismatch"
        assert report["issues"][0]["missing_matrices"] == 3
        assert report["issues"][0]["action"] == "pruned"
        stored = db.dataset("a", "accident")
        assert stored.n_instances == dataset.n_instances - 3
        assert db.verify()["healthy"]

    def test_rebuild_from_artifact_store_restores_exactly(self):
        db = VideoDatabase()
        dataset = _stored(db)
        store = MemoryArtifactStore()
        store.save("windows-key", dataset,
                   meta={"clip_id": "a", "stage": "windows"})
        db.record_artifact_entries(store.entries())
        db.arrays.delete("a/dataset-accident")

        report = db.verify(repair=True, artifact_store=store)
        assert report["issues"][0]["action"] == "rebuilt-from-artifacts"
        stored = db.dataset("a", "accident")
        assert stored.n_instances == dataset.n_instances
        np.testing.assert_array_equal(stored.instance_matrix(),
                                      dataset.instance_matrix())
        assert db.verify()["healthy"]

    def test_orphan_matrices_detected(self):
        db = VideoDatabase()
        _stored(db)
        key = "a/dataset-accident"
        bundle = db.arrays.load(key)
        db.arrays.save(key, {
            "instance_ids": np.concatenate(
                [bundle["instance_ids"], [9999]]),
            "matrices": np.concatenate(
                [bundle["matrices"], bundle["matrices"][:1]]),
        })
        report = db.verify()
        assert report["issues"][0]["orphan_matrices"] == 1
        db.verify(repair=True)
        assert db.verify()["healthy"]
        assert 9999 not in {
            int(i) for i in db.arrays.load(key)["instance_ids"]}


class TestLabelLayoutRebuild:
    """The one-time rebuild of a ``labels`` table written before the
    clustered layout, on the paths where it must not happen or fails."""

    def test_unchecked_open_keeps_a_damaged_old_layout(self, tmp_path):
        path = tmp_path / "v.db"
        old_layout_catalog(path, "head", label_history())
        _filler(path)
        _corrupt_leaf_page(path)
        layout = label_layout(path)
        assert layout[0] == "rowid"
        with pytest.raises(StorageError, match="quick_check"):
            VideoDatabase(path)
        db = VideoDatabase(path, quick_check=False)
        report = db.verify()
        db.close()
        assert report["quick_check"] != "ok"
        assert not report["healthy"]
        assert label_layout(path) == layout

    def test_busy_rebuild_opens_the_old_layout_and_the_next_open_rebuilds(
            self, tmp_path, fresh_telemetry):
        path = tmp_path / "v.db"
        history = label_history()
        old_layout_catalog(path, "head", history)
        with VideoDatabase(path, quick_check=False) as db:
            old_reads = label_reads(db)
        injector = FaultInjector(FaultPlan([
            FaultRule(op="db.execute", kind="busy", calls=(1,),
                      key_substring=CLUSTER_LABELS_SQL)]))

        def rebuild_events():
            return [(e["name"], e["level"]) for e in fresh_telemetry.events
                    if e["name"].startswith("db.labels_cluster")]

        with VideoDatabase(path, connection_factory=injector.connect) as db:
            assert label_reads(db) == old_reads
        assert [f.kind for f in injector.injected] == ["busy"]
        assert rebuild_events() == [("db.labels_cluster_failed", "warning")]
        assert label_layout(path)[0] == "rowid"

        with VideoDatabase(path, connection_factory=injector.connect) as db:
            assert label_reads(db) == old_reads
        assert rebuild_events() == [("db.labels_cluster_failed", "warning"),
                                    ("db.labels_clustered", "info")]
        assert label_layout(path) == ("clustered", set())
