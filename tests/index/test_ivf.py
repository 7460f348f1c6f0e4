"""Unit tests for the pure-numpy IVF index."""

import numpy as np
import pytest

from repro.core.bags import Bag, Instance, MILDataset
from repro.core.sharded import CorpusShard, ShardSpec
from repro.errors import ConfigurationError
from repro.index import IVFIndex, kmeans_cells


def _blobs(n, d=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=10.0, size=(4, d))
    return centers[rng.integers(0, 4, size=n)] + rng.normal(size=(n, d))


class TestKMeans:
    def test_deterministic_under_seed(self):
        x = _blobs(60)
        c1, a1 = kmeans_cells(x, 8, seed=3)
        c2, a2 = kmeans_cells(x, 8, seed=3)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_k_clamped_to_row_count(self):
        x = _blobs(5)
        centroids, assignments = kmeans_cells(x, 32)
        assert len(centroids) == 5
        assert sorted(np.unique(assignments)) == list(range(5))

    def test_duplicate_points_leave_no_nan(self):
        x = np.ones((10, 3))
        centroids, assignments = kmeans_cells(x, 4, seed=1)
        assert np.isfinite(centroids).all()
        assert len(assignments) == 10

    def test_empty_matrix(self):
        centroids, assignments = kmeans_cells(np.empty((0, 3)), 4)
        assert len(centroids) == 0 and len(assignments) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="n_cells"):
            kmeans_cells(_blobs(10), 0)
        with pytest.raises(ConfigurationError, match="iters"):
            kmeans_cells(_blobs(10), 2, iters=0)


class TestIVFIndex:
    def _index(self, n=40, n_cells=6):
        x = _blobs(n)
        row_bags = np.arange(n) // 2
        return IVFIndex.build(x, row_bags, n // 2, n_cells=n_cells), x

    def test_cells_partition_rows(self):
        index, x = self._index()
        assert sorted(index.cell_rows) == list(range(len(x)))
        assert index.cell_starts[0] == 0
        assert index.cell_starts[-1] == len(x)
        assert (np.diff(index.cell_starts) >= 0).all()

    def test_exhaustive_probe_reaches_every_bag(self):
        index, x = self._index()
        bags, stats = index.probe(x[:3], nprobe=index.n_cells)
        assert list(bags) == list(range(index.n_bags))
        assert stats["rows_gathered"] == len(x)

    def test_partial_probe_is_sublinear(self):
        index, x = self._index(n=200, n_cells=16)
        bags, stats = index.probe(x[:1], nprobe=2)
        assert 0 < stats["rows_gathered"] < len(x)
        assert stats["cells_probed"] == 2
        assert len(bags) == stats["bags_nominated"]

    def test_nprobe_clamped(self):
        index, x = self._index(n_cells=4)
        full, _ = index.probe(x[:1], nprobe=99)
        lo, _ = index.probe(x[:1], nprobe=-3)
        assert list(full) == list(range(index.n_bags))
        assert len(lo) >= 1

    def test_empty_index_probe_nominates_nothing(self):
        index = IVFIndex.build(None, np.empty(0, dtype=int), 3)
        bags, stats = index.probe(np.ones((2, 4)), nprobe=2)
        assert len(bags) == 0
        assert stats == {"cells_probed": 0, "rows_gathered": 0,
                         "bags_nominated": 0}

    def test_row_bags_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="row_bags"):
            IVFIndex.build(_blobs(10), np.arange(7), 5)


class TestBuildForDataset:
    """The index a shard builds over a dataset's instances."""

    def _dataset(self, n_bags=6, instances_per_bag=2, seed=0):
        rng = np.random.default_rng(seed)
        bags, iid = [], 0
        for b in range(n_bags):
            instances = []
            for _ in range(instances_per_bag):
                instances.append(Instance(
                    instance_id=iid, bag_id=b, track_id=iid,
                    matrix=rng.normal(size=(3, 2))))
                iid += 1
            bags.append(Bag(bag_id=b, clip_id="c", frame_lo=b * 10,
                            frame_hi=b * 10 + 9,
                            instances=tuple(instances)))
        return MILDataset(clip_id="c", event_name="accident",
                          feature_names=("f0", "f1"), window_size=3,
                          sampling_rate=5, bags=bags)

    @staticmethod
    def _shard(ds):
        spec = ShardSpec(clip_id=ds.clip_id, n_bags=len(ds.bags),
                         n_instances=ds.n_instances, loader=lambda: ds)
        return CorpusShard(spec, 0, 0)

    def test_rows_follow_bag_layout(self):
        index = self._shard(self._dataset()).ivf_index(n_cells=4)
        assert index.n_bags == 6
        np.testing.assert_array_equal(index.row_bags,
                                      np.arange(12) // 2)

    def test_deterministic_rebuild(self):
        ds = self._dataset()
        a = self._shard(ds).ivf_index(n_cells=4)
        b = self._shard(ds).rebuild_ivf_index(n_cells=4)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.cell_rows, b.cell_rows)

    def test_all_empty_bags(self):
        ds = self._dataset(instances_per_bag=0)
        index = self._shard(ds).ivf_index()
        assert index.n_cells == 0 and index.n_bags == 6
