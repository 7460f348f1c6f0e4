"""Pure-numpy IVF (inverted-file) index over instance feature vectors.

The classic coarse quantizer shape: k-means partitions the shard's raw
instance vectors into ``n_cells`` Voronoi cells; each cell keeps the
rows assigned to it (CSR layout: one permutation array + cell start
offsets).  A query probes the ``nprobe`` cells nearest to its vectors
and touches only the rows inside them, so nomination cost scales with
``n_cells + nprobe * rows_per_cell`` instead of the shard's bag count —
with ``n_cells ~ sqrt(n_rows)`` both terms are O(sqrt(n)).

Indexes are built on *raw* (unstandardized) features: a shard keeps
its index across appends (see
:meth:`repro.core.sharded.CorpusShard.ivf_index`) while the corpus
refits its global scaler after each one, so raw rows are the only
coordinates an index and its later queries share.  Nomination is approximate by design — the exact OCSVM rerank downstream
is what guarantees result quality — so the raw/standardized metric
mismatch costs only recall, never correctness.

Determinism contract: ``kmeans_cells`` draws every random choice from
``numpy.random.default_rng(seed)``, so the same ``(matrix, n_cells,
seed, iters)`` always yields bit-identical centroids and assignments,
and a shard that rebuilds its index over the same rows gets the same
cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import get_telemetry
from repro.utils import pairwise_sq_dists

__all__ = ["IVFIndex", "kmeans_cells"]


def kmeans_cells(matrix: np.ndarray, n_cells: int, *, seed: int = 0,
                 iters: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd k-means: ``(centroids (k, d), assignments (n,))``.

    ``n_cells`` is clamped to the row count (every cell needs at least a
    chance of a member).  Initial centroids are a seeded
    without-replacement row sample; a cell that loses all members keeps
    its previous centroid, so ``centroids`` never contains NaNs and cell
    ids stay stable across iterations.  Iteration stops early once the
    assignment vector is a fixed point.
    """
    if n_cells < 1:
        raise ConfigurationError(f"n_cells must be >= 1, got {n_cells}")
    if iters < 1:
        raise ConfigurationError(f"iters must be >= 1, got {iters}")
    x = np.asarray(matrix, dtype=np.float64)
    n = len(x)
    k = min(int(n_cells), n)
    if n == 0:
        return np.empty((0, x.shape[1] if x.ndim == 2 else 0)), \
            np.empty(0, dtype=np.intp)
    rng = np.random.default_rng(seed)
    centroids = x[np.sort(rng.choice(n, size=k, replace=False))].copy()
    assignments = np.full(n, -1, dtype=np.intp)
    for _ in range(int(iters)):
        new_assignments = np.argmin(
            pairwise_sq_dists(x, centroids), axis=1).astype(np.intp)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        counts = np.bincount(assignments, minlength=k).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, x)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids, assignments


@dataclass(frozen=True)
class IVFIndex:
    """One shard's inverted-file structure, probe-ready.

    ``cell_rows[cell_starts[c]:cell_starts[c + 1]]`` are the instance
    rows of cell ``c``; ``row_bags`` maps each instance row to its bag
    position in the shard's layout order.
    """

    centroids: np.ndarray
    cell_starts: np.ndarray
    cell_rows: np.ndarray
    row_bags: np.ndarray
    n_bags: int

    @property
    def n_cells(self) -> int:
        return len(self.centroids)

    @property
    def n_rows(self) -> int:
        return len(self.cell_rows)

    @classmethod
    def build(cls, matrix: np.ndarray | None, row_bags: np.ndarray,
              n_bags: int, *, n_cells: int = 32) -> "IVFIndex":
        """Index a shard's ``(n_rows, d)`` raw instance matrix.

        ``matrix=None`` (a shard of empty bags) builds a zero-cell index
        whose probes nominate nothing.  ``row_bags`` must map every
        matrix row to its bag position.
        """
        row_bags = np.asarray(row_bags, dtype=np.intp)
        if matrix is None or len(matrix) == 0:
            return cls(centroids=np.empty((0, 0)),
                       cell_starts=np.zeros(1, dtype=np.intp),
                       cell_rows=np.empty(0, dtype=np.intp),
                       row_bags=row_bags, n_bags=int(n_bags))
        if len(row_bags) != len(matrix):
            raise ConfigurationError(
                f"row_bags has {len(row_bags)} entries for "
                f"{len(matrix)} matrix rows")
        obs = get_telemetry()
        with obs.span("index.build", rows=len(matrix), cells=n_cells,
                      bags=int(n_bags)):
            centroids, assignments = kmeans_cells(matrix, n_cells)
            order = np.argsort(assignments, kind="stable").astype(np.intp)
            counts = np.bincount(assignments, minlength=len(centroids))
            starts = np.concatenate(
                ([0], np.cumsum(counts))).astype(np.intp)
        obs.counter("index.builds").inc()
        return cls(centroids=centroids, cell_starts=starts,
                   cell_rows=order, row_bags=row_bags,
                   n_bags=int(n_bags))

    # ------------------------------------------------------------ probe
    def nearest_cells(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Ids of the union of each query row's ``nprobe`` nearest cells."""
        if self.n_cells == 0 or len(queries) == 0:
            return np.empty(0, dtype=np.intp)
        nprobe = min(max(int(nprobe), 1), self.n_cells)
        dists = pairwise_sq_dists(np.atleast_2d(queries), self.centroids)
        if nprobe >= self.n_cells:
            return np.arange(self.n_cells, dtype=np.intp)
        near = np.argpartition(dists, nprobe - 1, axis=1)[:, :nprobe]
        return np.unique(near).astype(np.intp)

    def probe(self, queries: np.ndarray, nprobe: int
              ) -> tuple[np.ndarray, dict[str, int]]:
        """Bag positions touched by the ``nprobe`` cells nearest to any
        query vector, plus probe cost stats.

        Returns ``(bag_positions, stats)`` where ``stats`` counts
        ``cells_probed`` / ``rows_gathered`` / ``bags_nominated`` — the
        numbers the telemetry layer and benchmarks report.
        """
        cells = self.nearest_cells(queries, nprobe)
        if len(cells) == 0:
            return np.empty(0, dtype=np.intp), {
                "cells_probed": 0, "rows_gathered": 0, "bags_nominated": 0}
        spans = [self.cell_rows[self.cell_starts[c]:self.cell_starts[c + 1]]
                 for c in cells]
        rows = np.concatenate(spans) if spans else np.empty(0, dtype=np.intp)
        bags = np.unique(self.row_bags[rows])
        return bags.astype(np.intp), {
            "cells_probed": int(len(cells)),
            "rows_gathered": int(len(rows)),
            "bags_nominated": int(len(bags)),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IVFIndex(cells={self.n_cells}, rows={self.n_rows}, "
                f"bags={self.n_bags})")

