"""Sharded retrieval corpus: per-clip shards + two-stage pruned ranking.

The paper's end state is retrieval over a whole surveillance *database*
("ideally, all the video clips in a transportation surveillance video
database shall be mined and retrieved as a whole", Section 6.2).
Merging every clip into one monolithic
:class:`~repro.core.bags.MILDataset` gets the semantics right but scores
every instance with the learning rule each feedback round — linear round
latency in corpus size.

This module keeps the corpus sharded per clip and ranks in two stages,
the coarse-to-fine shape of progressive surveillance search systems:

1. a cheap **heuristic prefilter** (the paper's Section 5.3 square-sum
   scores, precomputed per shard) nominates the top-M candidate bags of
   every shard;
2. the engine's **learning rule** (:mod:`repro.core.rule`) scores only
   the candidate instances exactly — the One-class SVM rule scores full
   shards through the per-shard :class:`~repro.svm.gram_cache.GramCache`
   so warm rounds reuse kernel columns, pruned shards as one small
   kernel block;
3. one ``np.lexsort`` over every served bag orders the round: all
   candidates under the global deterministic order (score descending,
   bag id ascending), then the pruned bags in heuristic order.

Global bag/instance ids replicate ``merge_datasets``' positional
renumbering, so with pruning disabled (``candidates_per_shard=None``)
the ranking is the one the merged dataset would get.  A single clip is
a one-shard corpus: :class:`~repro.core.engine.MILRetrievalEngine` is
this engine over one, and the baselines are that engine over their
rules.

The corpus layer is database-agnostic: a :class:`ShardSpec` carries a
zero-argument ``loader`` callback, so :mod:`repro.db` can hand out
lazily-loading specs without this module importing the storage layer.
"""

from __future__ import annotations

import numbers
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.core.bags import Bag, Instance, MILDataset
from repro.core.heuristics import heuristic_scores
from repro.core.rule import Fit, OneClassRule, Rule
from repro.errors import (
    ConfigurationError,
    ShardUnavailableError,
    StorageError,
)
from repro.index.ivf import IVFIndex
from repro.obs import get_telemetry
from repro.reliability.retry import RetryPolicy
from repro.svm.gram_cache import GramCache
from repro.svm.scaling import StandardScaler
from repro.utils import check_in_range

__all__ = ["ShardSpec", "CorpusShard", "ShardedCorpus",
           "ShardedRetrievalEngine", "IVFNominator", "ShardOutage",
           "CoverageReport", "InstanceExplanation"]

#: Fits a corpus keeps per epoch (:meth:`ShardedCorpus.memoized_fit`);
#: past it, the oldest goes first.
FIT_MEMO_ENTRIES = 256


@dataclass(frozen=True)
class InstanceExplanation:
    """One Trajectory Sequence's standing inside a retrieved bag.

    The user-facing payoff of the MIL mapping: after labelling whole
    Video Sequences, :meth:`ShardedRetrievalEngine.explain` ranks the
    vehicles inside a result so a UI can highlight the ones the engine
    believes are involved.
    """

    rank: int
    instance_id: int
    track_id: int
    score: float
    feature_names: tuple[str, ...]
    matrix: np.ndarray

    @classmethod
    def for_bag(cls, bag, scores: Mapping[int, float],
                feature_names: tuple[str, ...]) -> list["InstanceExplanation"]:
        """One explanation per instance of ``bag``, best ``scores``
        (instance id -> relevance) first."""
        ordered = sorted(bag.instances, key=lambda i: scores[i.instance_id],
                         reverse=True)
        return [
            cls(rank=rank, instance_id=inst.instance_id,
                track_id=inst.track_id, score=float(scores[inst.instance_id]),
                feature_names=feature_names, matrix=inst.matrix)
            for rank, inst in enumerate(ordered, start=1)
        ]

    def peak_feature(self) -> tuple[str, float]:
        """(channel name, signed value) of the largest |feature| entry."""
        flat_index = int(np.argmax(np.abs(self.matrix)))
        _, col = np.unravel_index(flat_index, self.matrix.shape)
        return (self.feature_names[col],
                float(self.matrix.ravel()[flat_index]))


@dataclass(frozen=True)
class ShardSpec:
    """One clip's slot in a sharded corpus, loadable on demand.

    ``n_bags`` / ``n_instances`` come from the catalog (no bulk-array
    read) and fix the shard's global id range up front; ``loader``
    returns the clip's :class:`MILDataset` with *local* ids when the
    shard is actually needed.  The loaded counts are validated against
    the spec, so a stale catalog fails loudly instead of silently
    shifting every later shard's ids.
    """

    clip_id: str
    n_bags: int
    n_instances: int
    loader: Callable[[], MILDataset] = field(compare=False)

    def __post_init__(self) -> None:
        if self.n_bags < 0 or self.n_instances < 0:
            raise ConfigurationError(
                f"shard {self.clip_id!r}: negative bag/instance count"
            )


class CorpusShard:
    """One loaded shard: renumbered bags + precomputed ranking arrays.

    Renumbering replicates :func:`merge_datasets` positionally — global
    bag id = ``bag_offset`` + position, global instance id =
    ``instance_offset`` + bag-contiguous row — so shard-local arrays
    translate to global ids by offset arithmetic alone.

    ``matrix`` (the standardized instance matrix) stays ``None`` until
    :meth:`ShardedCorpus.standardize` builds it with the global scaler
    of corpus epoch :attr:`epoch`, and ``gram_cache`` until the
    One-class SVM rule first scores the whole shard in that epoch; the
    heuristic prefilter only needs the raw features.
    """

    def __init__(self, spec: ShardSpec, bag_offset: int,
                 instance_offset: int) -> None:
        local = spec.loader()
        if (len(local.bags) != spec.n_bags
                or local.n_instances != spec.n_instances):
            raise ConfigurationError(
                f"shard {spec.clip_id!r}: loader returned "
                f"{len(local.bags)} bags / {local.n_instances} instances, "
                f"spec declares {spec.n_bags} / {spec.n_instances}"
            )
        self.clip_id = spec.clip_id
        self.spec = spec
        self.bag_offset = int(bag_offset)
        self.instance_offset = int(instance_offset)
        self.dataset = MILDataset(
            clip_id=local.clip_id,
            event_name=local.event_name,
            feature_names=local.feature_names,
            window_size=local.window_size,
            sampling_rate=local.sampling_rate,
        )
        self.n_bags = self.n_instances = 0
        self.matrix_raw: np.ndarray | None = None
        self._add_bags(local.bags)
        self.matrix: np.ndarray | None = None
        self.gram_cache: GramCache | None = None
        #: The corpus epoch ``matrix`` was standardized in (``None``
        #: until then); ``gram_cache`` holds columns of that matrix.
        self.epoch: int | None = None

        self.heuristic_order_computes = 0
        self.set_initial_scores(*heuristic_scores(self.dataset))
        #: n_cells -> this shard's IVF index (see ivf_index).
        self._ivf_indexes: dict[int, IVFIndex] = {}
        #: Serializes access to this shard's mutable ranking state (epoch
        #: rebuilds, Gram cache fills + cross reads) when several sessions
        #: share one corpus.  The engine holds it across ensure_vectors +
        #: cross so the pair stays atomic.
        self.lock = threading.RLock()

    def set_initial_scores(self, bag_scores: np.ndarray,
                           instance_scores: Mapping[int, float]) -> None:
        """Install the feedback-free ranking of this shard.

        ``bag_scores`` is aligned with the shard's bags, and
        ``instance_scores`` maps global instance ids to scores.  Every
        array built from them is rebuilt: the instance score vector,
        each bag's instances in descending score order (what the
        training policy picks from) and the bag layout; the nomination
        order keyed on the old scores is dropped.
        """
        bags = self.dataset.bags
        self.heuristic_bags = np.asarray(bag_scores, dtype=float)
        self.heuristic_instances = np.array(
            [instance_scores[inst.instance_id]
             for inst in self.dataset.all_instances()])
        self.bag_ranked_ids = {
            bag.bag_id: tuple(
                inst.instance_id
                for inst in sorted(bag.instances,
                                   key=lambda i: instance_scores[
                                       i.instance_id],
                                   reverse=True)
            )
            for bag in bags
        }
        self.bag_sizes = np.array([b.n_instances for b in bags])
        self.bag_starts = np.concatenate(
            ([0], np.cumsum(self.bag_sizes)))[:-1].astype(int)
        self._heuristic_order: np.ndarray | None = None
        self._heuristic_rank: np.ndarray | None = None

    def _add_bags(self, bags) -> None:
        """Append clip-local ``bags`` in order, renumbered into the
        shard's global id ranges (the next bag id after the shard's last,
        instance ids bag-contiguous), and their rows to ``matrix_raw``."""
        next_bag = self.bag_offset + self.n_bags
        next_inst = self.instance_offset + self.n_instances
        rows = []
        for bag in bags:
            instances = []
            for inst in bag.instances:
                instances.append(Instance(
                    instance_id=next_inst, bag_id=next_bag,
                    track_id=inst.track_id, matrix=inst.matrix,
                ))
                rows.append(inst.vector)
                next_inst += 1
            self.dataset.bags.append(Bag(
                bag_id=next_bag, clip_id=bag.clip_id,
                frame_lo=bag.frame_lo, frame_hi=bag.frame_hi,
                instances=tuple(instances),
            ))
            next_bag += 1
        self.n_bags = len(self.dataset.bags)
        self.n_instances = next_inst - self.instance_offset
        if rows:
            block = np.ascontiguousarray(np.stack(rows), dtype=np.float64)
            self.matrix_raw = (block if self.matrix_raw is None
                               else np.vstack([self.matrix_raw, block]))

    @property
    def heuristic_order(self) -> np.ndarray:
        """Bag positions sorted by the global order (heuristic desc,
        bag id asc) — the prefilter's nomination order."""
        if self._heuristic_order is None:
            global_ids = self.bag_offset + np.arange(self.n_bags)
            self._heuristic_order = np.lexsort(
                (global_ids, -self.heuristic_bags))
            self.heuristic_order_computes += 1
        return self._heuristic_order

    @property
    def heuristic_rank(self) -> np.ndarray:
        """Inverse permutation of :attr:`heuristic_order`: position ->
        rank in the prefilter's nomination order."""
        if self._heuristic_rank is None:
            order = self.heuristic_order
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order), dtype=np.intp)
            self._heuristic_rank = rank
        return self._heuristic_rank

    def candidate_positions(self, m: int | None) -> np.ndarray:
        """Top-``m`` bag positions by heuristic score (all if ``m`` is
        ``None``): a prefix of the cached :attr:`heuristic_order`."""
        return self.heuristic_order[:m]

    def ivf_index(self, *, n_cells: int = 32) -> IVFIndex:
        """The shard's ``n_cells``-cell IVF index.

        The one place an index is made: the first IVF probe builds it
        from ``matrix_raw`` (:meth:`rebuild_ivf_index`), and later
        probes reuse it, memoized per ``n_cells``.
        """
        cached = self._ivf_indexes.get(n_cells)
        if cached is not None:
            return cached
        return self.rebuild_ivf_index(n_cells=n_cells)

    def append_local(self, bags) -> int:
        """Append newly streamed clip-local bags in place.

        ``bags`` carry *local* ids (position == bag id, as the batch and
        streaming window builders both number them); bags whose ids are
        already present are ignored, so replaying an ingest delta is
        idempotent.  Every ranking array and memo keyed on the old bag
        set is recomputed or dropped — except the IVF index memo, which
        deliberately survives: the nominator detects the stale tail
        (``index.n_bags < shard.n_bags``) and routes it explicitly, so a
        live shard never has to pay a k-means rebuild per segment.

        Standardized state (``matrix``, ``gram_cache``) is reset to
        ``None``: the global scaler must refit over the grown corpus,
        which :meth:`ShardedCorpus.standardize` does for the next epoch.
        """
        fresh = sorted((b for b in bags if b.bag_id >= self.n_bags),
                       key=lambda b: b.bag_id)
        if not fresh:
            return 0
        want = list(range(self.n_bags, self.n_bags + len(fresh)))
        if [b.bag_id for b in fresh] != want:
            raise ConfigurationError(
                f"shard {self.clip_id!r}: appended bag ids "
                f"{[b.bag_id for b in fresh]} are not the contiguous tail "
                f"{want}")
        self._add_bags(fresh)
        self.set_initial_scores(*heuristic_scores(self.dataset))
        self.matrix = None
        self.gram_cache = None
        self.epoch = None
        self.spec = replace(self.spec, n_bags=self.n_bags,
                            n_instances=self.n_instances)
        get_telemetry().counter("sharded.bags_appended").inc(
            len(fresh), clip=self.clip_id)
        return len(fresh)

    def rebuild_ivf_index(self, *, n_cells: int = 32) -> IVFIndex:
        """Build (and memoize) the ``n_cells``-cell IVF index over the
        current rows.

        :meth:`ivf_index` calls this on the first probe, and the
        nominator when the un-indexed tail has grown past its rebuild
        threshold.
        """
        sizes = self.bag_sizes.astype(np.intp)
        row_bags = np.repeat(np.arange(self.n_bags, dtype=np.intp), sizes)
        index = IVFIndex.build(self.matrix_raw, row_bags, self.n_bags,
                               n_cells=n_cells)
        self._ivf_indexes[n_cells] = index
        return index

    def row_of(self, instance_id: int) -> int:
        return instance_id - self.instance_offset

    def ts_matrices(self, rows: np.ndarray | list[int] | None, *,
                    standardized: bool) -> np.ndarray:
        """The Trajectory Sequences at local ``rows`` (every row if
        ``None``) as (rows, window, features) matrices, from the raw or
        the standardized instance matrix."""
        shape = (self.dataset.window_size, len(self.dataset.feature_names))
        if rows is not None and len(rows) == 0:  # an empty bag
            return np.empty((0, *shape))
        matrix = self.matrix if standardized else self.matrix_raw
        block = matrix if rows is None else matrix[rows]
        return block.reshape(len(block), *shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CorpusShard({self.clip_id!r}, bags={self.n_bags}, "
                f"instances={self.n_instances})")


@dataclass(frozen=True)
class ShardOutage:
    """One shard skipped this round because its storage is failing.

    ``retry_in_s`` is the time remaining until the corpus reprobes the
    shard's loader (0 when the reprobe is already due); ``n_bags`` is
    the catalog's bag count for the clip — the ranking coverage this
    outage hides.
    """

    clip_id: str
    reason: str
    failures: int
    retry_in_s: float
    n_bags: int


@dataclass(frozen=True)
class CoverageReport:
    """What fraction of the corpus a ranking round actually saw.

    Attached to every round by :class:`ShardedRetrievalEngine` (see
    ``last_coverage``).  Under the default ``strict`` policy a shard
    failure raises instead, so a report you can observe is always
    *honest*: ``degraded`` is True iff any shard was skipped, and the
    skipped clips/bags are enumerated — degraded results are never
    silently presented as complete.
    """

    shards_total: int
    shards_served: tuple[str, ...]
    shards_skipped: tuple[ShardOutage, ...]
    bags_total: int
    bags_missing: int
    training_bags_skipped: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.shards_skipped)

    @property
    def missing_clip_ids(self) -> tuple[str, ...]:
        return tuple(o.clip_id for o in self.shards_skipped)

    def summary(self) -> str:
        """One-line human rendering (used by the CLI)."""
        if not self.degraded:
            return (f"complete: {self.shards_total} shard(s), "
                    f"{self.bags_total} bags")
        missing = ", ".join(self.missing_clip_ids)
        return (f"DEGRADED: {len(self.shards_served)}/{self.shards_total} "
                f"shards served; missing {self.bags_missing} bag(s) from "
                f"[{missing}]")


class ShardedCorpus:
    """Per-clip shards behind one global, contiguous bag-id space.

    Shards load lazily: constructing the corpus touches only the specs'
    counts, and :meth:`shard` / :meth:`bag_by_id` materialize a clip on
    first use.  The corpus duck-types the slice of the
    :class:`MILDataset` surface the query/session layer relies on
    (``len``, ``bag_by_id``, ``n_instances``), so oracles and sessions
    work unchanged on top of it.

    **Epoch state.**  Every engine over the corpus shares what is
    derived from its rows, built by whichever engine needs it first in
    the current epoch (:attr:`mutation_count`; see :meth:`standardize`):
    the global scaler, fitted once per epoch, and each shard's
    ``matrix`` and ``gram_cache``, rebuilt at most once per epoch and
    stamped with it.  So every shard matrix or Gram column used for
    scoring was built with the current epoch's scaler.  A shared Gram
    cache computes each kernel column in the block of whichever engine
    first needed it, so scores can differ in the last bits from a
    private corpus', and near-ties can swap.  The epoch's rule fits are
    shared too (:meth:`memoized_fit`): engines that fit the same inputs
    hold one fitted value.

    **Threading contract.**  Concurrent rounds on one corpus are safe:
    loads, the scaler fit and fit-memo reads and writes run under
    :attr:`lock` (the fits themselves outside it), each shard's
    rebuild and Gram-cache fill/read pairs under the shard's lock.  A
    mutation (:meth:`refresh`) during rounds on the same corpus is not:
    a round can score a shard already rebuilt for the next epoch.
    Nothing in the repo does this — the service never writes datasets,
    and :class:`~repro.db.ingest.StreamingIngest` calls its progress
    callback between segments.
    """

    def __init__(self, specs: list[ShardSpec], *,
                 corpus_id: str = "sharded",
                 event_name: str = "",
                 retry_policy: RetryPolicy | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        if not specs:
            raise ConfigurationError("ShardedCorpus needs >= 1 shard spec")
        seen: set[str] = set()
        for spec in specs:
            if spec.clip_id in seen:
                raise ConfigurationError(
                    f"duplicate shard clip id {spec.clip_id!r}")
            seen.add(spec.clip_id)
        self.specs = list(specs)
        self.corpus_id = corpus_id
        self.event_name = event_name
        #: Backoff schedule for quarantined shards: failure ``n`` blocks
        #: reprobes for ``retry_policy.delay(n, key=clip_id)`` seconds
        #: (deterministic per clip).  ``clock`` is injectable so tests
        #: can step time instead of sleeping.
        self.retry_policy = retry_policy or RetryPolicy()
        self._clock = clock or time.monotonic
        self._lay_out()
        self._shards: dict[str, CorpusShard] = {}
        self._mutations = 0
        # clip_id -> {"failures", "next_probe_at", "reason"}
        self._quarantine: dict[str, dict] = {}
        self._availability = 0
        self._scaler: StandardScaler | None = None
        self._scaler_epoch: int | None = None
        self._fits: dict = {}
        self._fits_epoch: int | None = None
        #: Catalog version this corpus last absorbed (opaque here).
        self.source_version: int | None = None
        #: Serializes structural mutation (lazy loads, refresh,
        #: quarantine bookkeeping) and the scaler fit.  Reads of an
        #: already-loaded shard stay lock-free — dict lookups are atomic
        #: and shards are replaced wholesale, never mutated into
        #: inconsistency.
        self.lock = threading.RLock()

    def _lay_out(self) -> None:
        """Place the specs' id ranges back to back in spec order, the
        :func:`~repro.core.bags.merge_datasets` layout."""
        self._bag_offsets: list[int] = []
        self._instance_offsets: list[int] = []
        bags = insts = 0
        for spec in self.specs:
            self._bag_offsets.append(bags)
            self._instance_offsets.append(insts)
            bags += spec.n_bags
            insts += spec.n_instances
        self._n_bags = bags
        self._n_instances = insts

    @property
    def mutation_count(self) -> int:
        """Monotonic counter of corpus mutations (refresh / recovery):
        the corpus' epoch.

        The corpus keys its derived state and engines their rounds on
        this, so an open query session notices a live-shard append on
        its next round without being recreated.
        """
        return self._mutations

    def standardize(self, probe: Callable[[], list[CorpusShard]]
                    ) -> StandardScaler:
        """The current epoch's global scaler, with the healthy shards
        (``probe()``, run under :attr:`lock`) standardized by it.

        The first call in an epoch fits the scaler on the vstack of the
        shards' raw matrices — the merged dataset's exact rows, in order
        — so per-shard standardized matrices are bit-identical to the
        merged rows.  Each shard is standardized, and its Gram cache
        dropped, once per epoch.  A quarantined shard is left out of the
        fit; its recovery starts a new epoch, which refits.
        """
        with self.lock:
            shards = probe()
            if self._scaler_epoch != self._mutations:
                self._scaler = StandardScaler().fit(np.vstack(
                    [s.matrix_raw for s in shards
                     if s.matrix_raw is not None]))
                self._scaler_epoch = self._mutations
            scaler, epoch = self._scaler, self._scaler_epoch
        # Outside the corpus lock: an engine scoring a shard holds the
        # shard's lock and may need the corpus lock to probe another.
        for shard in shards:
            with shard.lock:
                if shard.epoch == epoch or shard.matrix_raw is None:
                    continue
                shard.matrix = np.ascontiguousarray(
                    scaler.transform(shard.matrix_raw))
                shard.gram_cache = None
                shard.epoch = epoch
        return scaler

    def _epoch_fits(self) -> dict:
        """The current epoch's fit memo (call under :attr:`lock`)."""
        if self._fits_epoch != self._mutations:
            self._fits = {}
            self._fits_epoch = self._mutations
        return self._fits

    def memoized_fit(self, key, epoch: int, fit: Callable[[], Fit]
                     ) -> tuple[Fit, bool]:
        """The fit for ``key`` in corpus epoch ``epoch``, and whether the
        memo served it.

        ``key`` must hold everything ``fit()`` reads besides the epoch's
        rows, so engines that fit the same inputs share one immutable
        value.  A miss runs ``fit()`` outside :attr:`lock`; when threads
        race on one key, those that lose adopt the first stored fit.  The
        memo keeps :data:`FIT_MEMO_ENTRIES` fits and goes when the epoch
        moves; a fit of an epoch already gone is returned but not kept.
        """
        with self.lock:
            current = epoch == self._mutations
            found = self._epoch_fits().get(key) if current else None
        if found is not None:
            get_telemetry().counter("sharded.fit_memo_hits").inc()
            return found, True
        fitted = fit()
        if not current:
            return fitted, False
        with self.lock:
            if epoch != self._mutations:
                return fitted, False
            fits = self._epoch_fits()
            winner = fits.setdefault(key, fitted)
            if len(fits) > FIT_MEMO_ENTRIES:
                del fits[next(iter(fits))]
        return winner, False

    def __len__(self) -> int:
        return self._n_bags

    @property
    def n_instances(self) -> int:
        return self._n_instances

    @property
    def clip_ids(self) -> list[str]:
        return [spec.clip_id for spec in self.specs]

    @property
    def loaded_clip_ids(self) -> list[str]:
        """Clips whose shards have been materialized so far."""
        return [s.clip_id for s in self.specs if s.clip_id in self._shards]

    @property
    def availability_version(self) -> int:
        """Monotonic counter of quarantine-set changes.

        Bumped when a healthy shard enters quarantine and when a
        quarantined shard recovers — engines key their cached round on
        this so a mid-session outage re-ranks instead of serving a stale
        round that still includes the dead shard.
        """
        return self._availability

    @property
    def quarantined_clip_ids(self) -> list[str]:
        return [s.clip_id for s in self.specs
                if s.clip_id in self._quarantine]

    def shard_outage(self, clip_id: str) -> ShardOutage | None:
        """The clip's current outage record, or ``None`` if healthy."""
        info = self._quarantine.get(clip_id)
        if info is None:
            return None
        spec = next(s for s in self.specs if s.clip_id == clip_id)
        return ShardOutage(
            clip_id=clip_id, reason=info["reason"],
            failures=info["failures"],
            retry_in_s=max(0.0, info["next_probe_at"] - self._clock()),
            n_bags=spec.n_bags)

    def _record_shard_failure(self, clip_id: str,
                              exc: BaseException) -> ShardUnavailableError:
        """Quarantine a shard after a storage failure; build the error.

        Each consecutive failure pushes the next reprobe further out on
        the :class:`RetryPolicy`'s backoff curve; a successful load
        (:meth:`_clear_quarantine`) resets the count.
        """
        prior = self._quarantine.get(clip_id)
        failures = (prior["failures"] if prior else 0) + 1
        delay = self.retry_policy.delay(failures, key=clip_id)
        reason = f"{type(exc).__name__}: {exc}"
        self._quarantine[clip_id] = {
            "failures": failures,
            "next_probe_at": self._clock() + delay,
            "reason": reason,
        }
        obs = get_telemetry()
        obs.counter("sharded.shard_failures").inc(clip=clip_id)
        obs.gauge("sharded.quarantined_shards").set(len(self._quarantine))
        obs.event("sharded.shard_quarantined", level="warning",
                  clip=clip_id, failures=failures,
                  retry_in_s=round(delay, 4), reason=reason)
        if prior is None:
            self._availability += 1
        return ShardUnavailableError(clip_id, reason, failures=failures,
                                     retry_in_s=delay)

    def _clear_quarantine(self, clip_id: str) -> None:
        info = self._quarantine.pop(clip_id, None)
        if info is None:
            return
        obs = get_telemetry()
        obs.counter("sharded.shard_recoveries").inc(clip=clip_id)
        obs.gauge("sharded.quarantined_shards").set(len(self._quarantine))
        obs.event("sharded.shard_recovered", clip=clip_id,
                  failures=info["failures"])
        self._availability += 1
        # A recovered shard was invisible to the epoch's global scaler;
        # start a new epoch so the corpus refits over the full corpus
        # instead of ranking the shard with no standardized rows.
        self._mutations += 1

    def shard(self, clip_id: str) -> CorpusShard:
        """The clip's shard, loading (and renumbering) it on first use.

        A shard whose loader failed is *quarantined*: until its
        backoff-and-reprobe deadline passes, this raises
        :class:`ShardUnavailableError` immediately (no I/O); once due,
        the loader is reprobed — success rejoins the shard and clears
        the quarantine, another ``StorageError``/``OSError`` extends it.
        """
        loaded = self._shards.get(clip_id)
        if loaded is not None:
            return loaded
        with self.lock:
            loaded = self._shards.get(clip_id)
            if loaded is not None:
                return loaded
            info = self._quarantine.get(clip_id)
            if info is not None and self._clock() < info["next_probe_at"]:
                raise ShardUnavailableError(
                    clip_id, info["reason"], failures=info["failures"],
                    retry_in_s=info["next_probe_at"] - self._clock())
            for i, spec in enumerate(self.specs):
                if spec.clip_id == clip_id:
                    obs = get_telemetry()
                    try:
                        with obs.span("sharded.shard.load", clip=clip_id,
                                      bags=spec.n_bags,
                                      instances=spec.n_instances):
                            shard = CorpusShard(
                                spec, self._bag_offsets[i],
                                self._instance_offsets[i])
                    except (StorageError, OSError) as exc:
                        raise self._record_shard_failure(clip_id, exc) \
                            from exc
                    self._shards[clip_id] = shard
                    self._clear_quarantine(clip_id)
                    return shard
            raise ConfigurationError(f"no shard for clip {clip_id!r}")

    def refresh(self, clip_id: str, *, n_bags: int,
                n_instances: int) -> int:
        """Adopt a clip's new catalog counts after a streamed append.

        Returns the number of bags that arrived (0 when the counts
        already match — a cheap no-op that never touches the loader).
        An already-loaded shard absorbs the delta *in place* via
        :meth:`CorpusShard.append_local`, keeping its offsets and every
        previously issued global bag id stable; an unloaded shard just
        gets an updated spec for its lazy load.  Later shards' global
        offsets shift by the delta, so any of them already loaded are
        dropped and load again lazily under their new offsets.
        """
        with self.lock:
            return self._refresh_locked(clip_id, n_bags=n_bags,
                                        n_instances=n_instances)

    def _refresh_locked(self, clip_id: str, *, n_bags: int,
                        n_instances: int) -> int:
        for i, spec in enumerate(self.specs):
            if spec.clip_id == clip_id:
                break
        else:
            raise ConfigurationError(f"no shard for clip {clip_id!r}")
        if n_bags == spec.n_bags and n_instances == spec.n_instances:
            return 0
        if n_bags < spec.n_bags or n_instances < spec.n_instances:
            raise ConfigurationError(
                f"shard {clip_id!r}: refresh would shrink the shard "
                f"({spec.n_bags}->{n_bags} bags); a shard only grows, so "
                f"build a new corpus over the changed clip")
        delta = n_bags - spec.n_bags
        shard = self._shards.get(clip_id)
        if shard is not None:
            try:
                local = spec.loader()
            except (StorageError, OSError) as exc:
                # The delta could not be read: keep the *old* spec (the
                # caller will re-refresh once the shard heals), drop the
                # loaded shard, and quarantine.  Nothing global moved,
                # so other shards' offsets and caches stay valid.
                self._shards.pop(clip_id, None)
                raise self._record_shard_failure(clip_id, exc) from exc
            if (len(local.bags) != n_bags
                    or local.n_instances != n_instances):
                raise ConfigurationError(
                    f"shard {clip_id!r}: loader returned "
                    f"{len(local.bags)} bags / {local.n_instances} "
                    f"instances, refresh declared {n_bags} / "
                    f"{n_instances}")
            self.specs[i] = replace(spec, n_bags=n_bags,
                                    n_instances=n_instances)
            shard.append_local(local.bags[shard.n_bags:])
        else:
            self.specs[i] = replace(spec, n_bags=n_bags,
                                    n_instances=n_instances)
        for later in self.specs[i + 1:]:
            self._shards.pop(later.clip_id, None)
        self._lay_out()
        self._mutations += 1
        get_telemetry().event("sharded.refresh", clip=clip_id,
                              delta_bags=delta)
        return delta

    def shards(self) -> Iterator[CorpusShard]:
        """All shards in spec order (loading any that aren't yet)."""
        for spec in self.specs:
            yield self.shard(spec.clip_id)

    def _spec_index_for_bag(self, bag_id: int) -> int:
        if not 0 <= bag_id < self._n_bags:
            raise ConfigurationError(f"no bag with id {bag_id}")
        return bisect_right(self._bag_offsets, bag_id) - 1

    def shard_for_bag(self, bag_id: int) -> CorpusShard:
        return self.shard(self.specs[self._spec_index_for_bag(bag_id)].clip_id)

    def shard_for_instance(self, instance_id: int) -> CorpusShard:
        if not 0 <= instance_id < self._n_instances:
            raise ConfigurationError(f"no instance with id {instance_id}")
        i = bisect_right(self._instance_offsets, instance_id) - 1
        return self.shard(self.specs[i].clip_id)

    def bag_by_id(self, bag_id: int) -> Bag:
        shard = self.shard_for_bag(bag_id)
        return shard.dataset.bags[bag_id - shard.bag_offset]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedCorpus({self.corpus_id!r}, shards={len(self.specs)}, "
                f"bags={self._n_bags})")


class IVFNominator:
    """Query-adaptive stage one: probe the shard's IVF index.

    Per round, the query vectors are the raw features of the training
    instances (the relevant bags' top Trajectory Sequences — the same
    rows the SVM trains on).  The ``nprobe`` cells nearest to any query
    vector are gathered and only the bags they touch are nominated, so
    stage-one cost per shard is O(n_cells + nprobe * rows_per_cell)
    instead of O(n_bags).  Nominations are then capped to the
    candidates-per-shard budget in heuristic-prefilter order, preserving
    the stage-two contract (same top-M candidate-set shape, same exact
    OCSVM rerank).

    Fallbacks keep the path exact whenever sublinearity is meaningless:
    before any relevant feedback (no query vectors yet) and when
    ``nprobe >= n_cells`` (probing every cell *is* a full scan) the
    nominator defers to the heuristic prefilter, which makes the
    exhaustive-probe ranking identical to the heuristic-nominated one by
    construction.
    """

    name = "ivf"

    def __init__(self, *, n_cells: int = 32, nprobe: int = 8,
                 rebuild_tail_fraction: float = 0.5) -> None:
        if n_cells < 1:
            raise ConfigurationError(
                f"n_cells must be >= 1, got {n_cells}")
        if nprobe < 1:
            raise ConfigurationError(f"nprobe must be >= 1, got {nprobe}")
        check_in_range("rebuild_tail_fraction", rebuild_tail_fraction,
                       0.0, 1.0, inclusive=(False, True))
        self.n_cells = int(n_cells)
        self.nprobe = int(nprobe)
        #: When a live append leaves more than this fraction of the
        #: shard outside the index, rebuild it instead of routing the
        #: tail around it.
        self.rebuild_tail_fraction = float(rebuild_tail_fraction)

    def nominate(self, shard: CorpusShard, queries: np.ndarray | None,
                 m: int | None) -> tuple[np.ndarray, float | None]:
        """(candidate positions, their recall of the heuristic top-``m``)
        for one shard, probed with the round's raw ``queries``.

        The recall is ``None`` when the probe deferred to the heuristic
        prefilter or the shard has no bags.
        """
        if queries is None:
            return shard.candidate_positions(m), None
        obs = get_telemetry()
        index = shard.ivf_index(n_cells=self.n_cells)
        if index.n_bags < shard.n_bags:
            # Bags streamed in after the index was built.  Past the
            # rebuild threshold, re-cluster over the grown shard; below
            # it, keep the index and route the tail explicitly below.
            tail = shard.n_bags - index.n_bags
            if tail >= self.rebuild_tail_fraction * shard.n_bags:
                index = shard.rebuild_ivf_index(n_cells=self.n_cells)
                obs.counter("index.rebuilds").inc()
        if index.n_cells == 0 or self.nprobe >= index.n_cells:
            return shard.candidate_positions(m), None
        with obs.span("index.probe", clip=shard.clip_id,
                      nprobe=self.nprobe, cells=index.n_cells) as sp:
            positions, stats = index.probe(queries, self.nprobe)
        obs.counter("index.cells_probed").inc(stats["cells_probed"])
        obs.counter("index.rows_gathered").inc(stats["rows_gathered"])
        obs.counter("index.bags_nominated").inc(stats["bags_nominated"])
        if sp is not None:
            sp.set(**stats)
        if index.n_bags < shard.n_bags:
            # The index never saw the appended tail, so probing can
            # never nominate it: always route un-indexed bags through
            # stage two alongside the probe hits.  Any tail bag the
            # heuristic baseline would surface in its top-M survives
            # the cap below (its heuristic rank is < M by definition),
            # so nomination recall over appended bags never hits zero.
            stale = np.arange(index.n_bags, shard.n_bags, dtype=np.intp)
            positions = np.union1d(positions, stale).astype(np.intp)
            obs.counter("index.stale_tail_routed").inc(len(stale))
        # Keep the stage-two contract: at most M candidates, walked in
        # the heuristic prefilter's nomination order.
        rank = shard.heuristic_rank
        positions = positions[np.argsort(rank[positions], kind="stable")]
        if m is not None and len(positions) > m:
            positions = positions[:m]
        baseline = shard.candidate_positions(m)
        if not len(baseline):
            return positions, None
        recall = float(np.isin(baseline, positions).mean())
        obs.gauge("index.nomination_recall").set(recall)
        return positions, recall


class ShardedRetrievalEngine:
    """Two-stage MIL retrieval over a :class:`ShardedCorpus`.

    Relevance feedback fits a learning rule (:class:`~repro.core.rule.Rule`),
    built by ``rule`` from ``rule_kwargs``, and the engine scores through
    the fit it holds (:attr:`fitted`; see
    :meth:`ShardedCorpus.memoized_fit`).  The default is the paper's
    :class:`~repro.core.rule.OneClassRule` (one-class SVM on the top
    heuristic Trajectory Sequences of the relevant bags, nu from Eq. 9;
    ``z``, ``kernel``, ``gamma``, ``training_policy``, ``nu_bounds``
    and ``learner`` configure it).  Until the rule is
    fitted every bag keeps its heuristic initial score.  A round scores
    each healthy shard's candidates, then one ``np.lexsort`` orders every
    served bag; the order is cached until the next ``feed``, corpus
    epoch or change in shard availability, and :meth:`rank_iter`,
    :meth:`top_k` and :meth:`rank` read it.

    * ``candidates_per_shard=None`` scores every bag exactly.
    * ``candidates_per_shard=M`` scores only each shard's nominated
      candidates with the rule; the remaining bags keep their heuristic
      order *after* all candidates — a recall/latency knob.
    * ``nominator`` picks stage one: ``"heuristic"`` (the shard's
      top-M heuristic prefix, exact-compatible default) or ``"ivf"``
      (probe each shard's :class:`~repro.index.ivf.IVFIndex` near the
      relevant bags' training instances — query-adaptive and sublinear
      in shard size).  An :class:`IVFNominator` instance can be passed
      directly to set ``n_cells`` / ``nprobe``.
    * ``failure_policy`` makes the shard the failure domain: under
      ``"degraded"`` a shard whose storage fails is skipped for the
      round (it is quarantined on the corpus' backoff-and-reprobe
      schedule) and ``last_coverage`` reports exactly which clips/bags
      the ranking is missing; under ``"strict"`` (default) the
      :class:`~repro.errors.ShardUnavailableError` propagates.
    """

    def __init__(
        self,
        corpus: ShardedCorpus,
        *,
        rule: Callable[..., Rule] = OneClassRule,
        candidates_per_shard: int | None = None,
        nominator: str | IVFNominator = "heuristic",
        failure_policy: str = "strict",
        **rule_kwargs,
    ) -> None:
        if len(corpus) == 0:
            raise ConfigurationError("dataset has no bags to rank")
        if failure_policy not in ("strict", "degraded"):
            raise ConfigurationError(
                f"failure_policy must be 'strict' or 'degraded', got "
                f"{failure_policy!r}")
        if corpus.n_instances == 0:
            raise ConfigurationError(
                "dataset has no instances (every bag is empty) — nothing "
                "to learn from or rank"
            )
        if candidates_per_shard is not None and candidates_per_shard < 1:
            raise ConfigurationError(
                f"candidates_per_shard must be >= 1 or None, got "
                f"{candidates_per_shard}"
            )
        self.rule = rule(**rule_kwargs)
        self.dataset = corpus
        self.corpus = corpus
        self.candidates_per_shard = candidates_per_shard
        #: Stage one's IVF probe, or ``None`` for the heuristic prefix.
        self.nominator: IVFNominator | None
        if isinstance(nominator, IVFNominator):
            self.nominator = nominator
        elif nominator in ("heuristic", "ivf"):
            self.nominator = IVFNominator() if nominator == "ivf" else None
        else:
            raise ConfigurationError(
                f"nominator must be 'heuristic', 'ivf' or an IVFNominator, "
                f"got {nominator!r}")
        #: ``strict`` (default): a failing shard raises
        #: :class:`ShardUnavailableError` out of rank/feed.
        #: ``degraded``: the round proceeds over the healthy shards and
        #: ``last_coverage`` reports exactly what was skipped.
        self.failure_policy = failure_policy
        #: Coverage of the most recent ranking round (``None`` before
        #: the first round).
        self.last_coverage: CoverageReport | None = None
        #: Per-shard cost/quality stats of the most recent *scored*
        #: round (``None`` until one is computed; survives cache hits).
        #: The quality ledger (:mod:`repro.db.query`) persists this.
        self.last_round_stats: dict | None = None
        self.labels: dict[int, bool] = {}
        #: The rule's fit this engine scores through (``None`` until
        #: relevant feedback gives it training rows): an immutable value
        #: that other engines over the corpus epoch may hold too.
        self.fitted: Fit | None = None
        #: Fits this engine took, and how many of them the corpus' fit
        #: memo served without a solve (the quality ledger reads both).
        self.fit_count = 0
        self.fit_memo_hits = 0
        # The cached round (see _ensure_round): served bag ids in rank
        # order, as Python ints, and the score each was ranked by.
        self._round: tuple[list[int], np.ndarray] | None = None
        self._training_ids: list[int] = []
        self._corpus_version = corpus.mutation_count
        self._availability_version = corpus.availability_version
        self._training_bags_skipped = 0

    def _sync_corpus(self) -> None:
        """Catch up with live-corpus mutations (appends, recoveries).

        A streamed append invalidates everything keyed on the old bag
        population.  The corpus rebuilds its own state (scaler,
        standardized matrices, Gram caches) once per epoch for every
        engine (:meth:`ShardedCorpus.standardize`); this drops the
        engine's: the cached round and the model.
        Retrain on the grown corpus when there is feedback, and the next
        round ranks the appended bags too — no session restart.
        """
        if self._corpus_version == self.corpus.mutation_count:
            return
        self._corpus_version = self.corpus.mutation_count
        self._round = None
        get_telemetry().counter("sharded.corpus_syncs").inc()
        if self.labels:
            self._retrain()

    def _probe_shards(self) -> tuple[list[CorpusShard], list[ShardOutage]]:
        """(healthy shards in spec order, outages for the rest).

        Probing a quarantined shard whose reprobe deadline passed
        re-runs its loader, so this is also where automatic recovery
        happens.  Under ``strict`` the first unavailable shard raises.
        """
        shards: list[CorpusShard] = []
        outages: list[ShardOutage] = []
        for spec in self.corpus.specs:
            try:
                shards.append(self.corpus.shard(spec.clip_id))
            except ShardUnavailableError as exc:
                if self.failure_policy == "strict":
                    raise
                outages.append(ShardOutage(
                    clip_id=spec.clip_id, reason=exc.reason,
                    failures=exc.failures, retry_in_s=exc.retry_in_s,
                    n_bags=spec.n_bags))
        return shards, outages

    # -- feedback ---------------------------------------------------------
    def feed(self, labels: Mapping[int, bool]) -> None:
        """Accumulate bag labels (bag_id -> relevant?) and retrain.

        Validates before mutating: a round with a non-integer or unknown
        bag id leaves the engine untouched.
        """
        bad = [b for b in labels if not isinstance(b, numbers.Integral)]
        if bad:
            raise ConfigurationError(
                f"bag ids must be integers, got {bad[:5]}")
        self._sync_corpus()
        unknown = {int(b) for b in labels
                   if not 0 <= int(b) < len(self.corpus)}
        if unknown:
            raise ConfigurationError(
                f"labels reference unknown bag ids {sorted(unknown)[:5]}"
            )
        self.labels.update({int(k): bool(v) for k, v in labels.items()})
        self._retrain()
        self._round = None

    @property
    def relevant_bag_ids(self) -> list[int]:
        return sorted(b for b, lab in self.labels.items() if lab)

    @property
    def irrelevant_bag_ids(self) -> list[int]:
        return sorted(b for b, lab in self.labels.items() if not lab)

    @property
    def has_relevant_feedback(self) -> bool:
        return any(self.labels.values())

    @property
    def is_trained(self) -> bool:
        """Whether the engine holds a fit; until then bags score by the
        heuristic."""
        return self.fitted is not None

    @property
    def last_nu_(self) -> float | None:
        """The held fit's Eq. 9 nu (``None`` while untrained, or for a
        rule without one)."""
        return None if self.fitted is None else self.fitted.nu

    @property
    def training_size_(self) -> int:
        """How many TSs the held fit trained on (0 while untrained)."""
        return 0 if self.fitted is None else len(self._training_ids)

    # -- training ---------------------------------------------------------
    def _ensure_standardized(self) -> StandardScaler:
        """The corpus' global scaler for the current epoch, with every
        healthy shard standardized by it.

        The corpus fits it at most once per epoch, over the shards this
        engine's failure policy lets through (in degraded mode
        quarantined shards are left out; a recovery starts a new epoch,
        which refits over the healed corpus), and standardizes each
        shard once per epoch, whichever engine asks first.
        """
        return self.corpus.standardize(lambda: self._probe_shards()[0])

    def _training_picks(self, bag_ids: list[int]
                        ) -> tuple[list[tuple[CorpusShard, list[int]]], int]:
        """(shard, instance ids the rule selects) per bag, and how many
        bags were skipped because their shard is unavailable."""
        picks = []
        skipped = 0
        for bag_id in bag_ids:
            try:
                shard = self.corpus.shard_for_bag(bag_id)
            except ShardUnavailableError:
                if self.failure_policy == "strict":
                    raise
                skipped += 1
                continue
            picks.append(
                (shard, list(self.rule.select(shard.bag_ranked_ids[bag_id]))))
        return picks, skipped

    def _training_blocks(self, picks) -> list[np.ndarray]:
        """One block of TS matrices per pick, as the rule reads them:
        one gather per shard, sliced per bag."""
        blocks: list[np.ndarray] = []
        for shard, group in groupby(picks, key=itemgetter(0)):
            chosen = [ids for _, ids in group]
            matrices = shard.ts_matrices(
                [shard.row_of(i) for ids in chosen for i in ids],
                standardized=self.rule.standardized)
            ends = np.cumsum([len(ids) for ids in chosen])
            blocks += [matrices[end - len(ids):end]
                       for ids, end in zip(chosen, ends)]
        return blocks

    def _query_vectors_raw(self) -> np.ndarray | None:
        """Raw feature rows of the current training instances — the IVF
        nominator's probe queries (index cells live in raw space, which
        exists before the global scaler does).  ``None`` until there is
        relevant feedback."""
        rows = []
        for i in self._training_ids:
            try:
                shard = self.corpus.shard_for_instance(i)
            except ShardUnavailableError:
                # Degraded: a training instance's shard died after the
                # model was fit.  The model itself is fine (its support
                # vectors are materialized); only the IVF probe loses
                # this query row.
                if self.failure_policy == "strict":
                    raise
                continue
            assert shard.matrix_raw is not None
            rows.append(shard.matrix_raw[shard.row_of(i)])
        return np.ascontiguousarray(np.stack(rows)) if rows else None

    def _retrain(self) -> None:
        self.fitted = None
        relevant = self.relevant_bag_ids
        # Relevant bags on a dead shard (degraded mode) give the rule no
        # block: Eq. 9 then counts only the bags that contributed
        # training rows, so nu keeps its meaning.
        picks, skipped = self._training_picks(relevant)
        self._training_bags_skipped = skipped
        if skipped:
            get_telemetry().event(
                "sharded.training_bags_skipped", level="warning",
                skipped=skipped, relevant=len(relevant))
        self._training_ids = training_ids = [
            i for _, ids in picks for i in ids]
        if not training_ids:
            return
        self._ensure_standardized()
        epoch = self.corpus.mutation_count
        negative = []
        if self.rule.negatives:
            negative = self._training_picks(self.irrelevant_bag_ids)[0]
        # Everything the fit reads in this epoch.  The ids stay grouped
        # per bag: an empty relevant bag adds no row but counts in
        # Eq. 9's h.
        key = (self.rule, tuple(tuple(ids) for _, ids in picks),
               tuple(tuple(ids) for _, ids in negative))
        self.fitted, hit = self.corpus.memoized_fit(
            key, epoch, lambda: self.rule.fit(
                self._training_blocks(picks),
                self._training_blocks(negative), training_ids))
        self.fit_count += 1
        self.fit_memo_hits += hit

    # -- per-shard scoring -------------------------------------------------
    def _full_shard_scores(self, shard: CorpusShard) -> np.ndarray:
        """Exact rule scores for every bag of one shard (layout order)."""
        scores = np.full(shard.n_bags, -np.inf)
        if shard.matrix is None:
            return scores
        decisions = self.fitted.decisions(shard)
        non_empty = shard.bag_sizes > 0
        if non_empty.any():
            scores[non_empty] = np.maximum.reduceat(
                decisions, shard.bag_starts[non_empty])
        return scores

    def _candidate_shard_scores(self, shard: CorpusShard,
                                positions: np.ndarray) -> np.ndarray:
        """Exact rule scores for the candidate bags only."""
        scores = np.full(len(positions), -np.inf)
        if shard.matrix is None:
            return scores
        sizes = shard.bag_sizes[positions]
        keep = sizes > 0
        if not keep.any():
            return scores
        counts = sizes[keep]
        seg_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        # Each candidate bag's instances are one contiguous row range;
        # gather them all with a single arange + per-segment offset.
        rows = np.arange(int(counts.sum())) + np.repeat(
            shard.bag_starts[positions][keep] - seg_starts, counts)
        decisions = self.fitted.decisions(shard, rows)
        scores[keep] = np.maximum.reduceat(decisions, seg_starts)
        return scores

    def _score_shard(self, shard: CorpusShard,
                     positions: np.ndarray) -> np.ndarray:
        """The scores of one shard's candidate ``positions`` this round:
        the rule's once trained, the heuristic's before."""
        if not self.is_trained:
            return shard.heuristic_bags[positions]
        if len(positions) == shard.n_bags:
            return self._full_shard_scores(shard)[positions]
        return self._candidate_shard_scores(shard, positions)

    def _coverage_report(self, shards: list[CorpusShard],
                         outages: list[ShardOutage]) -> CoverageReport:
        return CoverageReport(
            shards_total=len(self.corpus.specs),
            shards_served=tuple(s.clip_id for s in shards),
            shards_skipped=tuple(outages),
            bags_total=len(self.corpus),
            bags_missing=sum(o.n_bags for o in outages),
            training_bags_skipped=self._training_bags_skipped)

    def _ensure_round(self) -> tuple[list[int], np.ndarray]:
        """The round for the current feedback state: the served bag ids
        in rank order and the score each was ranked by.

        Cached until the next ``feed``, corpus epoch or change in shard
        availability; ``last_coverage`` is refreshed on every call.
        """
        shards, outages = self._probe_shards()
        self._sync_corpus()
        if self._availability_version != self.corpus.availability_version:
            # A shard died or rejoined since the cached round: the
            # cached order covers the wrong shard set.
            self._availability_version = self.corpus.availability_version
            self._round = None
        coverage = self._coverage_report(shards, outages)
        if self._round is None:
            self._round = self._score_round(shards)
            obs = get_telemetry()
            bags_total = len(self.corpus)
            obs.gauge("query.coverage_fraction").set(
                (bags_total - coverage.bags_missing) / bags_total)
            if outages:
                obs.counter("sharded.degraded_rounds").inc()
                obs.event(
                    "sharded.degraded_round", level="warning",
                    served=len(shards), skipped=len(outages),
                    missing_bags=coverage.bags_missing,
                    clips=",".join(o.clip_id for o in outages))
        self.last_coverage = coverage
        return self._round

    def _score_round(self, shards: list[CorpusShard]
                     ) -> tuple[list[int], np.ndarray]:
        """Score the healthy ``shards`` and order every bag they serve.

        Stage one nominates each shard's candidates and the rule scores
        them; the pruned bags keep their heuristic scores.  One lexsort
        then puts every candidate first, by score descending, and the
        pruned bags after them, by heuristic score descending; bag ids
        break ties.  Also records :attr:`last_round_stats`.
        """
        obs = get_telemetry()
        m = self.candidates_per_shard
        nominator = ("heuristic" if self.nominator is None
                     else self.nominator.name)
        n_served = sum(shard.n_bags for shard in shards)
        ids = np.empty(n_served, dtype=np.intp)
        scores = np.empty(n_served)
        pruned = np.ones(n_served, dtype=bool)
        shard_stats: list[dict] = []
        start = total_scored = 0
        with obs.span("sharded.rank", shards=len(self.corpus.specs),
                      trained=self.is_trained, nominator=nominator,
                      candidates_per_shard=m or 0) as sp:
            queries = (None if self.nominator is None
                       else self._query_vectors_raw())
            for shard in shards:
                with obs.span("sharded.shard.score",
                              clip=shard.clip_id,
                              n_bags=shard.n_bags) as shard_sp:
                    # Held across nomination + the rule's scoring: the
                    # One-class SVM rule fills and reads the shard's
                    # GramCache, which has no internal locking, and the
                    # fill/read pair must be atomic when concurrent
                    # sessions share this shard's cache.
                    with shard.lock:
                        if self.nominator is None:
                            positions = shard.candidate_positions(m)
                            recall = 1.0
                        else:
                            positions, recall = self.nominator.nominate(
                                shard, queries, m)
                        candidate_scores = self._score_shard(shard,
                                                             positions)
                    n_candidates = len(positions)
                    n_pruned = shard.n_bags - n_candidates
                    if shard_sp is not None:
                        shard_sp.set(candidates=n_candidates,
                                     pruned=n_pruned)
                end = start + shard.n_bags
                ids[start:end] = np.arange(shard.bag_offset,
                                           shard.bag_offset + shard.n_bags)
                scores[start:end] = shard.heuristic_bags
                scores[start + positions] = candidate_scores
                pruned[start + positions] = False
                start = end
                total_scored += n_candidates
                shard_stats.append({
                    "clip_id": shard.clip_id,
                    "n_bags": shard.n_bags,
                    "candidates": n_candidates,
                    "pruned": n_pruned,
                    "nomination_recall": recall,
                    "wall_ms": (round(shard_sp.wall_ms, 3)
                                if shard_sp is not None else None),
                })
                obs.histogram("sharded.shard.candidates").observe(
                    n_candidates)
                if n_pruned:
                    obs.counter("sharded.bags_pruned").inc(n_pruned)
                finite = candidate_scores[np.isfinite(candidate_scores)]
                if finite.size:
                    obs.histogram("sharded.shard.score_span").observe(
                        float(finite.max() - finite.min()))
            total_pruned = n_served - total_scored
            obs.counter("sharded.bags_scored").inc(total_scored)
            if sp is not None:
                sp.set(scored=total_scored, pruned=total_pruned)
            order = np.lexsort((ids, -scores, pruned))
        bags_total = len(self.corpus)
        recalls = [s["nomination_recall"] for s in shard_stats
                   if s["nomination_recall"] is not None]
        self.last_round_stats = {
            "shards": shard_stats,
            "bags_total": bags_total,
            "bags_scored": total_scored,
            "bags_pruned": total_pruned,
            "bags_scanned_fraction": total_scored / bags_total,
            "nomination_recall": (float(np.mean(recalls))
                                  if recalls else None),
            "nominator": nominator,
            "trained": self.is_trained,
        }
        return ids[order].tolist(), scores[order]

    # -- ranking ----------------------------------------------------------
    def rank_iter(self) -> Iterator[int]:
        """Bag ids in descending relevance, from one cached round.

        All exactly-scored candidates come first (global score order,
        ties by bag id); pruned bags follow in heuristic order.  A walk
        yields exactly the round it started on: a feed or a shard
        outage or recovery mid-walk takes effect on the next call.
        """
        yield from self._ensure_round()[0]

    def rank(self) -> list[int]:
        """Bag ids in descending relevance (ties broken by bag id)."""
        return list(self.rank_iter())

    def top_k(self, k: int) -> list[int]:
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        return self._ensure_round()[0][:k]

    # -- per-bag and per-instance views ------------------------------------
    def _instance_values(self, shard: CorpusShard) -> np.ndarray:
        """Current relevance of one shard's instances (layout order):
        the initial scores before any model, decision values after."""
        if not self.is_trained or shard.matrix is None:
            return shard.heuristic_instances
        with shard.lock:
            return self.fitted.decisions(shard)

    def bag_scores(self) -> np.ndarray:
        """Scores indexed by global bag id (higher = more relevant).

        Every bag of every healthy shard is scored exactly, whatever
        stage one would nominate; bags of skipped shards and empty bags
        score ``-inf``.
        """
        shards, _ = self._probe_shards()
        self._sync_corpus()
        scores = np.full(len(self.corpus), -np.inf)
        for shard in shards:
            if self.is_trained:
                with shard.lock:
                    values = self._full_shard_scores(shard)
            else:
                values = shard.heuristic_bags
            scores[shard.bag_offset:shard.bag_offset + shard.n_bags] = values
        return scores

    def instance_relevance(self) -> dict[int, float]:
        """Current per-instance relevance (global instance id -> score).

        The MIL claim made inspectable: bag-level labels let the engine
        point at the responsible Trajectory Sequences.
        """
        shards, _ = self._probe_shards()
        self._sync_corpus()
        out: dict[int, float] = {}
        for shard in shards:
            ids = range(shard.instance_offset,
                        shard.instance_offset + shard.n_instances)
            out.update(zip(ids, self._instance_values(shard).tolist()))
        return out

    def explain(self, bag_id: int) -> list[InstanceExplanation]:
        """Rank the instances of one bag by current relevance.

        One :class:`InstanceExplanation` per Trajectory Sequence, best
        first — "which vehicles in this Video Sequence made it a hit".
        """
        self._probe_shards()
        self._sync_corpus()
        shard = self.corpus.shard_for_bag(bag_id)
        bag = shard.dataset.bags[bag_id - shard.bag_offset]
        values = self._instance_values(shard)
        return InstanceExplanation.for_bag(
            bag, {i.instance_id: values[shard.row_of(i.instance_id)]
                  for i in bag.instances}, shard.dataset.feature_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedRetrievalEngine(shards={len(self.corpus.specs)}, "
                f"bags={len(self.corpus)}, "
                f"candidates_per_shard={self.candidates_per_shard})")

