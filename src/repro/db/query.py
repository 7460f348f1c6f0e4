"""Interactive semantic queries over the video database.

A query session binds stored clips and an event model to the retrieval
engine.  Each feedback round is persisted as label records, so a query
can be resumed later ("the training set ... is built up gradually with
the help of the user's feedback", paper Section 1) and different users'
feedback histories stay separate (Section 1's point that relevance is
user-specific).

There is one session path.  :class:`MultiClipQuerySession` runs on the
sharded corpus (see :mod:`repro.core.sharded`): clips stay per-shard
instead of being merged into one monolithic dataset, and an optional
prefilter bounds how many bags per shard the learning rule scores
exactly each round.  :class:`SemanticQuerySession` is that session over
one clip.  Every session over the same clips of one
:class:`VideoDatabase` shares one live corpus (:func:`sharded_corpus`),
which absorbs streamed appends before each round.
:func:`merged_corpus_id` and :func:`session_id_for`, the corpus and
session id formats, come from :mod:`repro.db.schema`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from typing import Mapping

from repro.core.rule import OneClassRule
from repro.core.sharded import (
    CoverageReport,
    IVFNominator,
    ShardedCorpus,
    ShardedRetrievalEngine,
    ShardSpec,
)
from repro.core.weighted_rf import WeightedRFRule
from repro.db.database import VideoDatabase
from repro.db.schema import LabelRecord, merged_corpus_id, session_id_for
from repro.errors import ConfigurationError, SessionConflictError, StorageError
from repro.obs import TailProfiler, get_telemetry, new_query_id, query_context
from repro.reliability.retry import RetryPolicy

__all__ = ["SemanticQuerySession", "MultiClipQuerySession",
           "sharded_corpus", "merged_corpus_id", "session_id_for",
           "ENGINE_FACTORIES"]

#: Engine name -> the learning rule the session's engine runs.
ENGINE_FACTORIES = {
    "mil_ocsvm": OneClassRule,
    "weighted_rf": WeightedRFRule,
}


#: Guards every catalog's ``corpora`` registry (check, then insert).
_CORPORA_LOCK = threading.Lock()


def sharded_corpus(db: VideoDatabase, clip_ids: list[str],
                   event_name: str, *,
                   retry_policy: RetryPolicy | None = None,
                   clock=None) -> ShardedCorpus:
    """Get the lazily-loading :class:`ShardedCorpus` over stored clips
    already open on ``db`` for this key, or build it.

    The key is everything the corpus is built from: ``clip_ids`` in
    order, ``event_name``, and the ``retry_policy`` / ``clock`` of its
    shard quarantine backoff schedule (``None`` means the defaults; see
    :class:`~repro.core.sharded.ShardedCorpus`).  Sessions that open one
    key on one ``db`` object share a corpus, and with it the shard
    loads, standardized matrices and Gram caches; each hit counts in
    ``sharded.corpus_pool_hits``.  ``db.corpora`` holds corpora weakly,
    so dropping the last session frees one.  Threads that open a new
    key at once build outside the lock, and losers adopt the winner's.

    Building reads only catalog metadata
    (:meth:`VideoDatabase.dataset_meta`); each shard's bulk instance
    matrices load on first use.  Cross-clip compatibility (event model,
    features, windowing) is validated up front with the same contract
    as :func:`~repro.core.bags.merge_datasets`.
    """
    if not clip_ids:
        raise ConfigurationError("need >= 1 clip id")
    key = (tuple(clip_ids), event_name, retry_policy, clock)
    with _CORPORA_LOCK:
        corpus = db.corpora.get(key)
    if corpus is not None:
        get_telemetry().counter("sharded.corpus_pool_hits").inc()
        return corpus
    # Read before the counts: an append that lands meanwhile leaves the
    # cursor behind, so the next round re-reads (never the reverse).
    version = db.metadata_version
    metas = [db.dataset_meta(c, event_name) for c in clip_ids]
    head = metas[0]
    for meta in metas[1:]:
        if (meta["feature_names"] != head["feature_names"]
                or meta["window_size"] != head["window_size"]
                or meta["sampling_rate"] != head["sampling_rate"]):
            raise ConfigurationError(
                f"dataset {meta['clip_id']!r} is not compatible with "
                f"{head['clip_id']!r} (event/features/windowing differ)"
            )
    specs = [
        ShardSpec(clip_id=meta["clip_id"], n_bags=meta["n_bags"],
                  n_instances=meta["n_instances"],
                  loader=partial(db.dataset, meta["clip_id"], event_name))
        for meta in metas
    ]
    built = ShardedCorpus(specs, corpus_id=merged_corpus_id(clip_ids),
                          event_name=event_name, retry_policy=retry_policy,
                          clock=clock)
    built.source_version = version
    with _CORPORA_LOCK:
        corpus = db.corpora.setdefault(key, built)
    if corpus is not built:
        get_telemetry().counter("sharded.corpus_pool_hits").inc()
    return corpus


def _catch_up(db: VideoDatabase, corpus: ShardedCorpus,
              failure_policy: str) -> None:
    """Absorb the bags appended to the catalog since ``corpus`` last
    read it.

    The cursor is the corpus' own (``source_version``), so a session
    that joins a shared corpus after an append no open session absorbed
    still sees it, and only the first session to see a new
    :attr:`VideoDatabase.metadata_version` re-reads each clip's counts.
    Under ``failure_policy="degraded"`` a clip whose catalog read or
    delta load fails is logged and skipped, and the cursor only moves
    when every clip refreshed cleanly, so the next round retries.
    """
    version = db.metadata_version
    if version == corpus.source_version:
        return
    with corpus.lock:
        if version == corpus.source_version:
            return
        all_refreshed = True
        for clip_id in corpus.clip_ids:
            try:
                meta = db.dataset_meta(clip_id, corpus.event_name)
                corpus.refresh(clip_id, n_bags=meta["n_bags"],
                               n_instances=meta["n_instances"])
            except (StorageError, OSError) as exc:
                # ShardUnavailableError lands here too: refresh() has
                # already quarantined the shard and the engine's next
                # round reports it in its coverage.
                if failure_policy == "strict":
                    raise
                all_refreshed = False
                get_telemetry().event(
                    "session.refresh_deferred", level="warning",
                    clip=clip_id, corpus=corpus.corpus_id,
                    reason=f"{type(exc).__name__}: {exc}")
        if all_refreshed:
            corpus.source_version = version


class _QuerySessionBase:
    """The rounds of a query session: ranking reads, persisted feedback,
    resume and resync, and the quality ledger.

    :class:`MultiClipQuerySession` builds the state these methods use;
    perfbench's tracer wraps ``results`` and ``feed`` on this class.
    ``corpus_id`` is the *history key*, the label-table key the feedback
    is stored under: the clip id for a :class:`SemanticQuerySession`,
    :func:`merged_corpus_id` of the clips otherwise.
    """

    def _replay_stored(self, engine) -> int:
        """Feed the stored label history into ``engine``; return the
        next round index the history expects.

        One statement reads both
        (:meth:`~repro.db.database.VideoDatabase.latest_labels`), so they
        come from one snapshot: with two reads, a round another worker
        committed between them would let the round guard pass on an
        engine that never saw that round's labels.
        """
        labels, next_round = self.db.latest_labels(
            self.corpus_id, self.event_name, self.user_id)
        if labels:
            engine.feed(labels)
        return next_round

    def resync(self) -> int:
        """Rebuild the engine from the stored label history.

        The recovery path after :class:`~repro.errors.SessionConflictError`:
        another worker committed a round this session object never saw,
        so its engine state has diverged from the durable history.  A
        fresh engine is built over the same corpus (its shard Gram caches
        are reused), caught up on appends the history may reference, and
        the winning history replayed into it; returns the next round
        index.
        """
        with self._round_lock:
            _catch_up(self.db, self.dataset, self.failure_policy)
            engine = self._engine_factory()
            self.round_index = self._replay_stored(engine)
            self.engine = engine
            self._stale = False
            return self.round_index

    def _start_round(self) -> None:
        """Pick up bags a streaming ingest appended since the corpus last
        looked (see :func:`_catch_up`), through :meth:`resync` after a
        failed label write.  The live shard absorbs the delta in place
        (:meth:`~repro.core.sharded.ShardedCorpus.refresh`), and the
        engine notices the corpus mutation on its next rank/feed and
        retrains over the grown corpus."""
        if self._stale:
            self.resync()
        else:
            _catch_up(self.db, self.dataset, self.failure_policy)

    @contextmanager
    def _observed_round(self, op: str):
        """Correlate, time, optionally profile and ledger one round.

        Everything under the ``with`` runs inside this session's
        :func:`~repro.obs.query_context`, so every span down to shard
        scoring, IVF probes and Gram-cache fills carries the same
        ``query_id`` — including worker-process spans, which re-enter
        the context via :func:`~repro.obs.carry_context`.  On success
        the round is appended to the quality ledger; a ledger write
        failure (busy/read-only catalog) degrades to a warning event,
        never a failed query.
        """
        obs = get_telemetry()
        if not obs.enabled:
            yield
            return
        round_index = self.round_index
        hits0 = obs.counter("svm.gram.columns_reused").total()
        miss0 = obs.counter("svm.gram.columns_computed").total()
        engine0 = self.engine
        fits0 = (engine0.fit_count, engine0.fit_memo_hits)
        span_mark = len(obs.spans) + obs.spans_dropped
        prof = None
        with query_context(self.query_id, session_id=self.session_id,
                           query_round=round_index):
            if self.profiler is not None:
                prof_cm = self.profiler.round(
                    op=op, corpus=self.corpus_id, round=round_index)
            else:
                prof_cm = None
            with obs.span("query.round", op=op,
                          corpus=self.corpus_id) as sp:
                if prof_cm is not None:
                    with prof_cm as prof:
                        yield
                else:
                    yield
        latency_ms = sp.wall_ms
        obs.histogram("query.round.latency_ms").observe(latency_ms, op=op)
        if not self.ledger:
            return
        # Only spans recorded by this round (the buffer is append-only
        # modulo rotation) and stamped with this query's id belong in
        # the ledger row.
        start = max(0, span_mark - obs.spans_dropped)
        round_spans = [
            s.to_event() for s in obs.spans[start:]
            if s.attrs.get("query_id") == self.query_id
        ]
        # A resync at the round's start replaces the engine; every fit
        # of the new one is this round's.
        detail = self._round_detail(
            obs, op, latency_ms, round_spans, hits0, miss0,
            fits0 if self.engine is engine0 else (0, 0))
        profile_text = ""
        if prof is not None and prof.kept:
            profile_text = prof.collapsed()
            detail["profile_wall_ms"] = round(prof.wall_ms, 3)
        try:
            self.db.record_query_round(
                session_id=self.session_id, query_id=self.query_id,
                corpus_id=self.corpus_id, event=self.event_name,
                user_id=self.user_id, round_index=round_index, op=op,
                latency_ms=latency_ms, detail=detail, spans=round_spans,
                profile=profile_text)
            obs.counter("query.ledger_rounds").inc(op=op)
        except (StorageError, OSError) as exc:
            obs.event("query.ledger_write_failed", level="warning",
                      corpus=self.corpus_id, op=op,
                      reason=f"{type(exc).__name__}: {exc}")

    def _round_detail(self, obs, op: str, latency_ms: float,
                      round_spans: list[dict], hits0: float, miss0: float,
                      fits0: tuple[int, int]) -> dict:
        """The per-round quality record the ledger persists.

        Its ``fits`` entry counts the round's fits from the engine's own
        counts, since a process-wide counter would mix in concurrent
        sessions' fits: a fit the corpus memo served ran no solve, so
        the round has no ``svm.fit`` span for it.
        """
        stages: dict[str, dict] = {}
        for event in round_spans:
            if event["name"] == "query.round":
                continue
            agg = stages.setdefault(
                event["name"], {"count": 0, "wall_ms": 0.0})
            agg["count"] += 1
            agg["wall_ms"] = round(agg["wall_ms"] + event["wall_ms"], 3)
        hits = obs.counter("svm.gram.columns_reused").total() - hits0
        misses = obs.counter("svm.gram.columns_computed").total() - miss0
        looked_up = hits + misses
        detail: dict = {
            "op": op,
            "latency_ms": round(latency_ms, 3),
            "stages": stages,
            "cache": {
                "gram_columns_reused": hits,
                "gram_columns_computed": misses,
                "hit_rate": (hits / looked_up) if looked_up else None,
            },
        }
        fits = self.engine.fit_count - fits0[0]
        if fits:
            detail["fits"] = {
                "count": fits,
                "memo_hits": self.engine.fit_memo_hits - fits0[1],
            }
        stats = self.engine.last_round_stats
        if stats is not None:
            detail["engine"] = stats
            detail["nomination_recall"] = stats.get("nomination_recall")
            detail["bags_scanned_fraction"] = stats.get(
                "bags_scanned_fraction")
        coverage = self.engine.last_coverage
        if coverage is not None:
            detail["coverage"] = {
                "summary": coverage.summary(),
                "degraded": coverage.degraded,
                "shards_served": len(coverage.shards_served),
                "shards_total": coverage.shards_total,
                "bags_missing": coverage.bags_missing,
                "bags_total": coverage.bags_total,
            }
        return detail

    def _vehicle_classes(self, clip_id: str) -> dict[int, str]:
        """Session-level vehicle-class cache, one DB read per clip.

        Keyed on :attr:`VideoDatabase.metadata_version` so the cache is
        dropped wholesale when tracks are rewritten or clips change
        under the session.
        """
        version = self.db.metadata_version
        if version != self._class_cache_version:
            self._class_cache = {}
            self._class_cache_version = version
        classes = self._class_cache.get(clip_id)
        if classes is None:
            classes = self._class_cache[clip_id] = \
                self.db.vehicle_classes(clip_id)
        return classes

    def results(self, *, vehicle_class: str | None = None) -> list[int]:
        """Current top-k bag ids, best first.

        ``vehicle_class`` restricts results to Video Sequences containing
        at least one Trajectory Sequence of a vehicle with that stored
        class ("accidents involving trucks") — combining the metadata and
        semantic sides of the database.  The ranking is walked lazily
        (:meth:`ShardedRetrievalEngine.rank_iter`) and stops at ``top_k``
        matches, so clips past the cut are neither scored globally nor
        have their metadata fetched.
        """
        with self._round_lock, self._observed_round("results"):
            self._start_round()
            if vehicle_class is None:
                return self.engine.top_k(self.top_k)
            out: list[int] = []
            for bag_id in self.engine.rank_iter():
                bag = self.dataset.bag_by_id(bag_id)
                classes = self._vehicle_classes(bag.clip_id)
                if any(classes.get(i.track_id) == vehicle_class
                       for i in bag.instances):
                    out.append(bag_id)
                    if len(out) >= self.top_k:
                        break
            return out

    def result_windows(self) -> list[tuple[int, int, int]]:
        """(bag_id, frame_lo, frame_hi) for the current results — what a
        UI would let the user play back."""
        return [
            (b, self.dataset.bag_by_id(b).frame_lo,
             self.dataset.bag_by_id(b).frame_hi)
            for b in self.results()
        ]

    def feed(self, labels: Mapping[int, bool]) -> None:
        """Apply one round of user feedback; persists and retrains.

        The engine goes first: ``ShardedRetrievalEngine.feed`` validates
        bag ids before mutating anything, so a rejected round (e.g. an
        unknown bag id) leaves both the engine and the stored label
        history untouched — persisting first would desync the two
        permanently and make resume replay labels the engine never
        accepted.

        The persist carries an optimistic round guard: if another
        worker resumed the same session id and committed this round
        first, :class:`~repro.errors.SessionConflictError` propagates —
        but only after this session has :meth:`resync`'d onto the
        winning history, so the caller may simply re-apply the user's
        labels against the refreshed ranking.  Any other failed write
        (e.g. a busy catalog) marks the session stale: its next round
        resyncs from the stored history before ranking, so the engine
        never keeps labels the catalog did not store.
        """
        if not labels:
            raise ConfigurationError("feedback round must label >= 1 bag")
        with self._round_lock, self._observed_round("feed"):
            self._start_round()
            self.engine.feed(labels)
            # Stale until the write commits: the engine holds these
            # labels, the catalog may not.
            self._stale = True
            try:
                self.db.add_labels([
                    LabelRecord(clip_id=self.corpus_id,
                                event_name=self.event_name,
                                bag_id=int(bag_id), user_id=self.user_id,
                                round_index=self.round_index,
                                relevant=bool(relevant))
                    for bag_id, relevant in labels.items()
                ], expect_round=self.round_index)
            except SessionConflictError:
                get_telemetry().counter("query.session_conflicts").inc()
                self.resync()
                raise
            self._stale = False
            self.round_index += 1


class MultiClipQuerySession(_QuerySessionBase):
    """One user's interactive query over one or more stored clips as a
    single retrievable corpus.

    The paper's goal state: "Ideally, all the video clips in a
    transportation surveillance video database shall be mined and
    retrieved as a whole" (Section 6.2).  Feedback is persisted under a
    stable history key derived from the (ordered) clip ids
    (:func:`merged_corpus_id`), so a resumed session over the same clips
    continues where it left off; ``user_id`` keeps users' histories
    apart.  For clips from different cameras, normalize the tracks
    before building the stored datasets (see
    :mod:`repro.vision.calibration`).

    The corpus stays sharded per clip
    (:class:`~repro.core.sharded.ShardedRetrievalEngine`) and is shared
    and live: every session over the same clips, event and retry
    schedule on the same ``db`` object ranks one corpus
    (:func:`sharded_corpus`), so shard loads, live appends, standardized
    matrices and Gram-cache columns are paid once for all of them, and
    the session absorbs bags a streaming ingest appended before its
    replay and before every round.  ``engine`` names the learning rule
    (:data:`ENGINE_FACTORIES`).  Shards load lazily, each ranking round
    sorts every served bag once, and ``candidates_per_shard=M`` caps how
    many bags per shard the learning rule scores exactly (the rest keep their
    cheap heuristic order after all candidates — a recall/latency knob).
    With ``candidates_per_shard=None`` the ranking matches the engine
    over the :func:`~repro.core.bags.merge_datasets` corpus, for either
    engine name.  ``nominator="ivf"`` switches stage one from the static
    heuristic prefilter to a probe of each shard's IVF index
    (``index_cells`` / ``nprobe`` tune it) — sublinear nomination with
    the same exact rerank.

    ``failure_policy`` picks what happens when a member clip's storage
    fails mid-session: ``"strict"`` (default) raises
    :class:`~repro.errors.ShardUnavailableError`, ``"degraded"`` keeps
    the session alive on the healthy shards and reports the skipped
    coverage via :attr:`last_coverage`.  Failed shards sit on a
    ``retry_policy`` backoff schedule and rejoin automatically once
    their artifacts heal.
    """

    def __init__(
        self,
        db: VideoDatabase,
        clip_ids: list[str],
        event_name: str,
        *,
        user_id: str = "default",
        engine: str = "mil_ocsvm",
        top_k: int = 20,
        candidates_per_shard: int | None = None,
        nominator: str = "heuristic",
        index_cells: int | None = None,
        nprobe: int | None = None,
        failure_policy: str = "strict",
        retry_policy: RetryPolicy | None = None,
        clock=None,
        ledger: bool = True,
        profiler: TailProfiler | float | None = None,
    ) -> None:
        if not clip_ids:
            raise ConfigurationError("need >= 1 clip id")
        if top_k <= 0:
            raise ConfigurationError("top_k must be positive")
        if not user_id or ":" in user_id:
            # The session id is "user:corpus:event".  The history key
            # legitimately contains ':' ("merged:a+b"), so the only way
            # to keep the triple unambiguous is to ban the delimiter in
            # the user field — otherwise tenants "a:b"/corpus "c" and
            # "a"/corpus "b:c" would merge their feedback histories.
            raise ConfigurationError(
                f"user_id must be non-empty and must not contain ':' "
                f"(got {user_id!r})")
        try:
            rule = ENGINE_FACTORIES[engine]
        except KeyError:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available: "
                f"{sorted(ENGINE_FACTORIES)}"
            ) from None
        if (nprobe is not None or index_cells is not None) \
                and nominator != "ivf":
            raise ConfigurationError(
                "nprobe/index_cells only apply to the IVF nominator "
                "(pass nominator='ivf')"
            )
        self.db = db
        self.clip_ids = list(clip_ids)
        self.corpus_id = self._history_key()
        self.event_name = event_name
        self.user_id = user_id
        self.top_k = int(top_k)
        self.failure_policy = failure_policy
        #: Stable identity for the feedback history this session extends
        #: — a resumed session lands in the same ledger session.
        self.session_id = session_id_for(user_id, self.corpus_id,
                                         event_name)
        #: Fresh per-session-object correlation id, stamped (via
        #: :func:`repro.obs.query_context`) onto every span and event
        #: either side of the process boundary.
        self.query_id = new_query_id()
        self.ledger = bool(ledger)
        if isinstance(profiler, (int, float)):
            profiler = TailProfiler(float(profiler))
        self.profiler = profiler
        self._class_cache: dict[str, dict[int, str]] = {}
        self._class_cache_version: int | None = None
        #: Serializes feed/results/resync so one session object can be
        #: shared by service worker threads without interleaving a feed
        #: mid-retrain with a ranking read.
        self._round_lock = threading.RLock()
        self.dataset = sharded_corpus(db, self.clip_ids, event_name,
                                      retry_policy=retry_policy, clock=clock)
        # A shared corpus may predate appends the stored labels reference.
        _catch_up(db, self.dataset, failure_policy)
        if nominator == "ivf":
            ivf_kwargs = {}
            if index_cells is not None:
                ivf_kwargs["n_cells"] = int(index_cells)
            if nprobe is not None:
                ivf_kwargs["nprobe"] = int(nprobe)
            nominator = IVFNominator(**ivf_kwargs)
        #: Builds a fresh, unfed engine over the corpus — what
        #: :meth:`resync` replays the stored history into.
        self._engine_factory = partial(
            ShardedRetrievalEngine, self.dataset, rule=rule,
            nominator=nominator, failure_policy=failure_policy,
            candidates_per_shard=candidates_per_shard)
        self.engine = self._engine_factory()
        #: Set when a label write failed after the engine took the
        #: labels; the next round resyncs before it ranks.
        self._stale = False
        # Resume: replay this user's stored feedback into the engine.
        self.round_index = self._replay_stored(self.engine)

    def _history_key(self) -> str:
        """The label-table key this session's feedback is stored under."""
        return merged_corpus_id(self.clip_ids)

    @property
    def last_coverage(self) -> CoverageReport | None:
        """Shard coverage of the most recent ranking round.

        ``None`` before the first round; otherwise a
        :class:`~repro.core.sharded.CoverageReport` whose ``degraded``
        flag says whether any quarantined shard was skipped (only
        possible under ``failure_policy="degraded"``).
        """
        return self.engine.last_coverage

class SemanticQuerySession(MultiClipQuerySession):
    """One user's interactive query against one stored clip/event dataset.

    A :class:`MultiClipQuerySession` over ``[clip_id]``: it shares the
    clip's live corpus with every session over that clip and takes the
    same options.  Its history key is the clip id itself, so feedback
    stored by a single-clip session and by a one-clip multi-clip session
    (``merged:<clip>``) stay apart.
    """

    def __init__(self, db: VideoDatabase, clip_id: str, event_name: str,
                 **kwargs) -> None:
        super().__init__(db, [clip_id], event_name, **kwargs)

    def _history_key(self) -> str:
        return self.clip_id

    @property
    def clip_id(self) -> str:
        return self.clip_ids[0]
