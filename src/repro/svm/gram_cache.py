"""Cross-kernel column cache for the relevance-feedback hot path.

Every feedback round the retrieval engine fits a one-class learner on
the training instances and then scores the *whole* database against the
fitted model.  The scoring pass only needs kernel values between the
rows of one fixed matrix — a shard's standardized database — and the
support vectors.  :class:`GramCache` holds that matrix once, keeps its
per-row squared norms, and caches the full database column
``K(X, v)`` for every support vector ``v`` it has been asked for.

Across rounds the training set mostly *grows* (labels accumulate, see
``ShardedRetrievalEngine.feed``), so a warm round computes kernel columns
only for newly seen support vectors; the scoring block is then a pure
gather:

* scoring block  ``K(X, support) = columns[:, support_ids]``

Cached columns are keyed by ``(instance_id, kernel.params_key())``:
changing the kernel family or any parameter (e.g. a data-dependent
``gamma="scale"`` that moves as the training set grows) invalidates the
cache wholesale, so cached and uncached scores always agree to floating
point tolerance.  Column evaluation is blockwise
(:meth:`Kernel.compute_blocked`) to bound peak memory on large
databases.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import get_telemetry
from repro.svm.kernels import DEFAULT_BLOCK_ROWS, Kernel, RBFKernel
from repro.utils import check_2d, row_sq_norms

__all__ = ["GramCache"]


class GramCache:
    """Caches kernel columns between a fixed matrix and its rows.

    Parameters
    ----------
    x:
        The (n, d) database matrix (already standardized — the cache
        never transforms).  A defensive reference is kept, not a copy;
        callers must treat the matrix as frozen for the cache's lifetime.
    block_rows:
        Row-block size for kernel evaluation (peak-memory bound).
    """

    def __init__(self, x: np.ndarray, *,
                 block_rows: int = DEFAULT_BLOCK_ROWS) -> None:
        self._x = check_2d("x", x)
        self._x_sq = row_sq_norms(self._x)
        self._block_rows = int(block_rows)
        self._params: tuple | None = None
        self._cols: dict[int, np.ndarray] = {}
        self._diag: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    # -- introspection -----------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._x.shape[0]

    @property
    def n_cached(self) -> int:
        return len(self._cols)

    @property
    def params(self) -> tuple | None:
        """Kernel params key the cached columns belong to."""
        return self._params

    # -- cache core --------------------------------------------------------
    def _sync_kernel(self, kernel: Kernel) -> None:
        key = kernel.params_key()
        if key != self._params:
            self._cols.clear()
            self._diag = None
            self._params = key

    def ensure(self, kernel: Kernel, ids: list[int],
               rows: np.ndarray) -> int:
        """Make the columns ``K(X, X[rows])`` for ``ids`` available.

        ``ids`` are the training instance ids, ``rows`` their row indices
        in the database matrix (aligned): :meth:`ensure_vectors` over
        those rows.  Returns how many columns had to be computed.
        """
        return self.ensure_vectors(kernel, ids,
                                   self._x[np.asarray(rows, dtype=int)])

    def ensure_vectors(self, kernel: Kernel, ids: list[int],
                       vectors: np.ndarray) -> int:
        """Make columns ``K(X, vectors)`` available for external ``ids``.

        Unlike :meth:`ensure`, the training vectors need not be rows of
        the cached matrix: a sharded corpus scores each shard against
        support vectors owned by *other* shards.  ``vectors`` is the
        (len(ids), d) matrix aligned with ``ids`` (already in the same
        standardized space as the cached database).  Caching and
        invalidation semantics are identical to :meth:`ensure`; an id
        first seen through either entry point is served from cache by
        both afterwards.
        """
        vectors = check_2d("vectors", vectors)
        if len(ids) != vectors.shape[0]:
            raise ConfigurationError(
                f"ids and vectors must align, got {len(ids)} ids / "
                f"{vectors.shape[0]} vectors"
            )
        self._sync_kernel(kernel)
        missing = [k for k, i in enumerate(ids) if i not in self._cols]
        obs = get_telemetry()
        if missing:
            with obs.span("svm.gram.ensure", columns=len(missing),
                          reused=len(ids) - len(missing)):
                sub = np.ascontiguousarray(vectors[missing])
                if isinstance(kernel, RBFKernel):
                    fresh = kernel.compute_blocked(
                        self._x, sub, block_rows=self._block_rows,
                        a_sq=self._x_sq)
                else:
                    fresh = kernel.compute_blocked(
                        self._x, sub, block_rows=self._block_rows)
                for j, k in enumerate(missing):
                    self._cols[ids[k]] = np.ascontiguousarray(fresh[:, j])
        reused = len(ids) - len(missing)
        self.misses += len(missing)
        self.hits += reused
        if missing:
            obs.counter("svm.gram.columns_computed").inc(len(missing))
        if reused:
            obs.counter("svm.gram.columns_reused").inc(reused)
        return len(missing)

    def cross(self, ids: list[int]) -> np.ndarray:
        """Database-vs-``ids`` block ``K(X, X[rows(ids)])``, (n, len(ids)).

        Requires :meth:`ensure` for ``ids`` first.  Callers gather only
        the columns they score against (e.g. the support vectors), so
        the per-round copy is (n, n_sv) instead of (n, n_train).
        """
        out = np.empty((self.n_rows, len(ids)), dtype=float)
        for j, i in enumerate(ids):
            out[:, j] = self._cached_column(i)
        return out

    def _cached_column(self, instance_id: int) -> np.ndarray:
        try:
            return self._cols[instance_id]
        except KeyError:
            raise ConfigurationError(
                f"instance {instance_id} has no cached column; call "
                f"ensure() first"
            ) from None

    def diag(self, kernel: Kernel) -> np.ndarray:
        """Per-row self-similarities ``K(x_i, x_i)`` of the database."""
        self._sync_kernel(kernel)
        if self._diag is None:
            self._diag = kernel.diag(self._x)
        return self._diag

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GramCache(n_rows={self.n_rows}, cached={self.n_cached}, "
                f"params={self._params!r})")
