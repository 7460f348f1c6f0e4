"""Vector indexes for sublinear candidate nomination.

The two-stage ranker (:mod:`repro.core.sharded`) nominates candidate
bags per shard before the exact one-class SVM rerank.  This package
holds the index structures that make nomination *query-adaptive and
sublinear*: instead of a static heuristic order, an
:class:`~repro.index.ivf.IVFIndex` partitions a shard's instance
vectors into k-means cells (built on the shard's first IVF probe),
and each round probes only the cells nearest the relevant bags'
instances.

Everything is pure numpy — no FAISS, no sqlite extensions — and every
build is deterministic, so two shards over the same rows build
bit-identical indexes.
"""

from repro.index.ivf import IVFIndex, kmeans_cells

__all__ = ["IVFIndex", "kmeans_cells"]
