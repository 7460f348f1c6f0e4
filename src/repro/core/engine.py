"""The paper's MIL retrieval engine over one clip (paper Section 5).

The learning rule lives in :class:`~repro.core.rule.OneClassRule` and the
engine in :class:`~repro.core.sharded.ShardedRetrievalEngine`; one clip
is simply a corpus with one shard.  The baselines are this engine over
their own rules (:mod:`repro.core.weighted_rf`,
:mod:`repro.core.diverse_density`, :mod:`repro.core.emdd`).
"""

from __future__ import annotations

from repro.core.bags import MILDataset
from repro.core.sharded import (
    CorpusShard,
    ShardedCorpus,
    ShardedRetrievalEngine,
    ShardSpec,
)
from repro.errors import ConfigurationError

__all__ = ["MILRetrievalEngine"]


class MILRetrievalEngine(ShardedRetrievalEngine):
    """Interactive MIL retrieval with a One-class SVM core, over one clip.

    A :class:`~repro.core.sharded.ShardedRetrievalEngine` over a one-shard
    corpus of ``dataset``, which stays available as :attr:`dataset`;
    keyword arguments configure the engine and its rule (``z``,
    ``kernel``, ``gamma``, ``training_policy``, ``nu_bounds``,
    ``learner``, ...).
    The shard keeps the dataset's ids, so they must already be
    positional: bag ids ``0..n-1`` in order and instance ids ``0..N-1``
    bag-contiguously, as every builder in this package numbers them.
    """

    def __init__(self, dataset: MILDataset, **kwargs) -> None:
        next_instance = 0
        for position, bag in enumerate(dataset.bags):
            ids = [inst.instance_id for inst in bag.instances]
            if bag.bag_id != position or ids != list(
                    range(next_instance, next_instance + len(ids))):
                raise ConfigurationError(
                    f"dataset {dataset.clip_id!r} is not positionally "
                    f"numbered: bag #{position} has id {bag.bag_id} and "
                    f"instance ids {ids[:5]}; renumber it (e.g. with "
                    f"merge_datasets) first")
            next_instance += len(ids)
        spec = ShardSpec(clip_id=dataset.clip_id, n_bags=len(dataset.bags),
                         n_instances=dataset.n_instances,
                         loader=lambda: dataset)
        super().__init__(ShardedCorpus([spec], corpus_id=dataset.clip_id,
                                       event_name=dataset.event_name),
                         **kwargs)
        self.dataset = dataset

    @property
    def shard(self) -> CorpusShard:
        """The corpus' single shard (loaded on first use)."""
        return self.corpus.shard(self.dataset.clip_id)
