"""Golden rankings: per-round top-20 ids, their scores and accuracies.

Pins the paper's learning rule end to end, so a refactor of the
retrieval engine has to reproduce what it ranked before:

* the Fig. 8 (tunnel) and Fig. 9 (intersection) protocols in oracle
  mode, plus Fig. 9 under the SVDD learner and ``training_policy="all"``;
* the MIL_OCSVM series of ``mil_algorithms`` on the tunnel (its default
  intersection series is the Fig. 9 case above);
* the baselines: Weighted-RF on the Fig. 8 and Fig. 9 clips under
  percentage and linear weight normalization, and Diverse Density and
  EM-DD on a small synthetic dataset;
* a single-clip session over a stored clip, resumed in a new session
  object part way through;
* the ``sharded_nomination`` experiment's IVF corpus over its three
  clips, ranked through each shard's IVF index;
* multi-clip sessions: IVF-nominated with pruning, degraded under a
  fault plan that fails chosen shard loads (a full outage, then one
  shard missing, then recovery), fed by streaming appends, and driven
  over the service API;
* vision mode: a sha256 over the per-frame detections of one short clip
  per scenario kind, and the Fig. 8 protocol on a vision-built dataset.

Accuracies must match exactly and scores within ``SCORE_TOL``.  Ids must
match too, except that two adjacent bags whose recorded scores differ by
at most ``SCORE_TOL`` may trade places (disjoint swaps only): such
near-ties can flip in the last bit across CPUs and BLAS builds.

After an intended ranking change, regenerate the fixture file with::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/golden -q

Regeneration rewrites only the cases that ran, so ``-k <case>`` records
one case and leaves the others as they were.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core import (
    DiverseDensityEngine,
    EMDDEngine,
    MILRetrievalEngine,
    MultiClipOracle,
    OracleUser,
    WeightedRFEngine,
)
from repro.core.sharded import (
    IVFNominator,
    ShardedCorpus,
    ShardedRetrievalEngine,
    ShardSpec,
)
from repro.db import (
    MultiClipQuerySession,
    SemanticQuerySession,
    StreamingIngest,
    VideoDatabase,
)
from repro.eval import build_artifacts
from repro.events.models import event_model_for
from repro.pipeline.config import RenderConfig, SegmentConfig
from repro.reliability import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from repro.service import RetrievalService
from repro.sim import GroundTruth, curve, highway, intersection, tunnel
from repro.vision import SegmentationPipeline, VideoClip
from tests.core.conftest import make_toy

FIXTURE = Path(__file__).with_name("rankings.json")
REGEN = os.environ.get("REPRO_GOLDEN_REGEN") == "1"
SCORE_TOL = 1e-9
TOP_K = 20
PROTOCOL_ROUNDS = 5
SESSION_ROUNDS = 4
EVENT = "accident"
VISION_FRAMES = 240
#: Substring unique to the instance SELECT every shard load runs.
SHARD_LOAD_SQL = "track_id FROM instances"


def _scores(engine, ids) -> list[float]:
    """The scores ``engine`` ranked ``ids`` by this round.

    Read from the engine's cached round when it has one (exact scores
    for nominated bags, heuristic ones for pruned bags), otherwise from
    its bag-aligned ``bag_scores()``.
    """
    ranked = getattr(engine, "_round", None)
    if ranked is None:
        scores = engine.bag_scores()
        position = {b.bag_id: i for i, b in enumerate(engine.dataset.bags)}
        return [float(scores[position[b]]) for b in ids]
    table = dict(zip(*ranked))
    return [float(table[b]) for b in ids]


def _record(ids, scores, labels, **extra) -> dict:
    hits = sum(labels[b] for b in ids)
    return {"ids": [int(b) for b in ids], "scores": scores,
            "accuracy": hits / len(ids) if ids else 0.0, **extra}


def _protocol(artifacts, engine_cls=MILRetrievalEngine,
              **engine_kwargs) -> list[dict]:
    """The paper's 5-round protocol, as ``run_protocol`` drives it."""
    kinds = event_model_for(artifacts.dataset.event_name).relevant_kinds
    return _rounds(engine_cls(artifacts.dataset, **engine_kwargs),
                   OracleUser(artifacts.ground_truth, kinds))


def _rounds(engine, user, top_k=TOP_K) -> list[dict]:
    rounds = []
    for _ in range(PROTOCOL_ROUNDS):
        ids = engine.top_k(top_k)
        labels = user.label_bags([engine.dataset.bag_by_id(b) for b in ids])
        rounds.append(_record(ids, _scores(engine, ids), labels))
        engine.feed(labels)
    return rounds


def _session_round(session, oracle, extra=None) -> dict:
    """One results + feed round; ``extra(session)`` adds fields read
    right after the ranking."""
    ids = session.results()
    labels = oracle.label_bags([session.dataset.bag_by_id(b) for b in ids])
    record = _record(ids, _scores(session.engine, ids), labels,
                     **(extra(session) if extra else {}))
    if labels:
        session.feed(labels)
    return record


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def clips(small_tunnel, small_intersection):
    """(sims, oracle artifacts, truths) of the two small clips."""
    sims = (small_tunnel, small_intersection)
    artifacts = [build_artifacts(sim, mode="oracle") for sim in sims]
    truths = {sim.name: GroundTruth.from_result(sim) for sim in sims}
    return sims, artifacts, truths


def _ingest(db, clips) -> list[str]:
    sims, artifacts, _ = clips
    for sim, art in zip(sims, artifacts):
        db.ingest_simulation(sim, art.tracks, art.dataset)
    return [sim.name for sim in sims]


@lru_cache(maxsize=None)
def _paper_clip(scenario: str, seed: int):
    """Oracle-mode artifacts of the experiments' full-length clips."""
    builder = {"tunnel": tunnel, "intersection": intersection,
               "curve": curve}[scenario]
    return build_artifacts(builder(seed=seed), mode="oracle")


def case_figure8(clips, tmp_path):
    return _protocol(_paper_clip("tunnel", 0))


def case_figure9(clips, tmp_path):
    return _protocol(_paper_clip("intersection", 1))


def case_figure9_svdd(clips, tmp_path):
    return _protocol(_paper_clip("intersection", 1), learner="svdd")


def case_figure9_policy_all(clips, tmp_path):
    return _protocol(_paper_clip("intersection", 1), training_policy="all")


def case_mil_algorithms(clips, tmp_path):
    return _protocol(_paper_clip("tunnel", 1))


def case_weighted_rf_figure8(clips, tmp_path):
    return _protocol(_paper_clip("tunnel", 0), WeightedRFEngine)


def case_weighted_rf_figure8_linear(clips, tmp_path):
    return _protocol(_paper_clip("tunnel", 0), WeightedRFEngine,
                     normalization="linear")


def case_weighted_rf_figure9(clips, tmp_path):
    return _protocol(_paper_clip("intersection", 1), WeightedRFEngine)


def case_weighted_rf_figure9_linear(clips, tmp_path):
    return _protocol(_paper_clip("intersection", 1), WeightedRFEngine,
                     normalization="linear")


def _toy_protocol(engine_cls) -> list[dict]:
    """DD-family baselines on a small synthetic dataset (the paper clips
    take DD tens of seconds per round)."""
    dataset, truth = make_toy(n_event=6, n_brake=6, n_normal=12, seed=2)
    return _rounds(engine_cls(dataset, max_starts=4), OracleUser(truth),
                   top_k=8)


def case_diverse_density_toy(clips, tmp_path):
    return _toy_protocol(DiverseDensityEngine)


def case_emdd_toy(clips, tmp_path):
    return _toy_protocol(EMDDEngine)


def case_single_clip_session(clips, tmp_path):
    """The 5-round protocol through a stored clip's query session; a new
    session object resumes the stored history after round 2."""
    db = VideoDatabase()
    clip = _ingest(db, clips)[0]
    oracle = OracleUser(clips[2][clip])

    def open_session():
        return SemanticQuerySession(db, clip, EVENT, user_id="golden",
                                    top_k=TOP_K)

    session = open_session()
    rounds = [_session_round(session, oracle) for _ in range(2)]
    session = open_session()
    assert session.round_index == 2
    rounds += [_session_round(session, oracle)
               for _ in range(PROTOCOL_ROUNDS - 2)]
    return rounds


def case_sharded_nomination_ivf(clips, tmp_path):
    """The 5-round protocol over ``sharded_nomination``'s IVF corpus
    (seed 0): three clips, 16 candidates per shard, and each shard's
    32-cell index probed at 4 cells."""
    clip_artifacts = [_paper_clip("tunnel", 0),
                      _paper_clip("intersection", 1),
                      _paper_clip("curve", 2)]
    specs = [
        ShardSpec(clip_id=a.dataset.clip_id, n_bags=len(a.dataset.bags),
                  n_instances=a.dataset.n_instances,
                  loader=(lambda a=a: a.dataset))
        for a in clip_artifacts
    ]
    engine = ShardedRetrievalEngine(
        ShardedCorpus(specs, event_name=EVENT), candidates_per_shard=16,
        nominator=IVFNominator(n_cells=32, nprobe=4))
    return _rounds(engine, MultiClipOracle(
        {a.result.name: a.ground_truth for a in clip_artifacts}))


def case_multiclip_ivf(clips, tmp_path):
    db = VideoDatabase()
    session = MultiClipQuerySession(
        db, _ingest(db, clips), EVENT, user_id="golden", top_k=TOP_K,
        candidates_per_shard=12, nominator="ivf", index_cells=8, nprobe=2)
    oracle = MultiClipOracle(clips[2])
    return [_session_round(session, oracle) for _ in range(SESSION_ROUNDS)]


def case_multiclip_degraded(clips, tmp_path):
    # Shard loads 1 and 2 (round 0) and 4 (the intersection's first
    # reprobe) hit SQLITE_BUSY: a full outage, then one shard missing,
    # then full coverage once the backoff lets the intersection rejoin.
    injector = FaultInjector(FaultPlan([
        FaultRule(op="db.execute", kind="busy", calls=(1, 2, 4),
                  key_substring=SHARD_LOAD_SQL),
    ]))
    clock = _Clock()
    db = VideoDatabase(tmp_path / "degraded.db",
                       connection_factory=injector.connect)
    session = MultiClipQuerySession(
        db, _ingest(db, clips), EVENT, user_id="golden", top_k=TOP_K,
        failure_policy="degraded", clock=clock,
        retry_policy=RetryPolicy(base_delay=1.0, backoff=2.0,
                                 max_delay=8.0, jitter=0.0))
    oracle = MultiClipOracle(clips[2])
    rounds = []
    for _ in range(SESSION_ROUNDS + 2):
        rounds.append(_session_round(session, oracle, lambda s: {
            "coverage": s.last_coverage.summary()}))
        clock.now += 1.5
    db.close()
    assert len(injector.injected) == 3, injector.injected
    assert rounds[0]["coverage"].startswith("DEGRADED: 0/2")
    assert rounds[1]["coverage"].startswith("DEGRADED: 1/2")
    assert rounds[-1]["coverage"].startswith("complete")
    return rounds


def case_streaming(clips, tmp_path):
    sims, artifacts, truths = clips
    tunnel_sim, intersection_sim = sims
    db = VideoDatabase()
    db.ingest_simulation(tunnel_sim, artifacts[0].tracks,
                         artifacts[0].dataset)
    oracle = MultiClipOracle(truths)
    live, rounds = [], []

    def corpus_size(session):
        return {"corpus": len(session.dataset)}

    def after_append(emission):
        if not live:
            live.append(MultiClipQuerySession(
                db, [intersection_sim.name, tunnel_sim.name], EVENT,
                user_id="golden", top_k=TOP_K))
        rounds.append(_session_round(live[0], oracle, corpus_size))

    StreamingIngest(db, intersection_sim, segment_frames=150).run(
        progress=after_append)
    rounds.append(_session_round(live[0], oracle, corpus_size))
    return rounds


def case_service(clips, tmp_path):
    path = str(tmp_path / "service.db")
    with VideoDatabase(path) as db:
        clip_ids = _ingest(db, clips)
    oracle = MultiClipOracle(clips[2])
    service = RetrievalService(path)
    try:
        status, _, body = service.handle("POST", "/sessions", json.dumps({
            "user": "golden", "clips": clip_ids, "event": EVENT,
            "top_k": TOP_K}).encode())
        assert status == 201, body
        sid = json.loads(body)["session"]
        rounds = []
        for _ in range(SESSION_ROUNDS):
            status, _, body = service.handle(
                "GET", f"/sessions/{sid}/results")
            assert status == 200, body
            ids = [r["bag_id"] for r in json.loads(body)["results"]]
            session = service._sessions[sid].session
            labels = oracle.label_bags(
                [session.dataset.bag_by_id(b) for b in ids])
            rounds.append(_record(ids, _scores(session.engine, ids), labels))
            status, _, body = service.handle(
                "POST", f"/sessions/{sid}/feed", json.dumps(
                    {"labels": {str(b): v for b, v in labels.items()}}
                ).encode())
            assert status == 200, body
    finally:
        service.close()
    return rounds


def _vision_clips() -> dict:
    """One short clip per scenario kind, with enough traffic that most
    frames hold several vehicles."""
    return {
        "tunnel": tunnel(n_frames=VISION_FRAMES, seed=5,
                         spawn_interval=(12.0, 12.0), n_wall_crashes=1,
                         n_sudden_stops=1),
        "intersection": intersection(n_frames=VISION_FRAMES, seed=5,
                                     spawn_interval=(40.0, 40.0),
                                     n_collisions=1, n_near_misses=1),
        "highway": highway(n_frames=VISION_FRAMES, seed=5,
                           spawn_interval=(40.0, 40.0), n_uturns=1,
                           n_speeding=1),
    }


def _detections_digest(sim) -> str:
    """sha256 over every frame's detections (integer bbox and area), from
    the render and segment stages' vision-mode defaults."""
    render, segment = RenderConfig(), SegmentConfig()
    clip = VideoClip.from_simulation(
        sim, render_seed=render.render_seed,
        noise_sigma=render.noise_sigma, fps=render.fps)
    frames = SegmentationPipeline(
        use_spcpe=segment.use_spcpe, min_area=segment.min_area,
        max_area=segment.max_area, patch_margin=segment.patch_margin,
    ).process(clip)
    digest = hashlib.sha256()
    for index, detections in enumerate(frames):
        for det in detections:
            x0, y0, x1, y1 = det.blob.bbox
            digest.update(
                f"{index} {x0} {y0} {x1} {y1} {det.blob.area}\n".encode())
    return digest.hexdigest()


def case_vision(clips, tmp_path):
    """The Fig. 8 protocol on the small tunnel clip's vision-built
    dataset; round 0 also carries each kind's detections digest."""
    artifacts = build_artifacts(clips[0][0], mode="vision")
    assert len(artifacts.dataset.bags) >= TOP_K
    rounds = _protocol(artifacts)
    rounds[0]["detections"] = {
        kind: _detections_digest(sim)
        for kind, sim in _vision_clips().items()}
    return rounds


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= SCORE_TOL


def assert_round_matches(expected: dict, actual: dict, where: str) -> None:
    assert actual["accuracy"] == expected["accuracy"], where
    want, got = expected["ids"], actual["ids"]
    assert len(got) == len(want), where
    i = 0
    while i < len(want):
        if got[i] == want[i]:
            i += 1
            continue
        swapped = (i + 1 < len(want) and got[i] == want[i + 1]
                   and got[i + 1] == want[i]
                   and _close(expected["scores"][i],
                              expected["scores"][i + 1]))
        assert swapped, f"{where}: rank {i + 1} is bag {got[i]}, " \
                        f"expected {want[i]} (recorded {want})"
        i += 2
    recorded = dict(zip(want, expected["scores"]))
    for bag_id, score in zip(got, actual["scores"]):
        assert _close(score, recorded[bag_id]), \
            f"{where}: bag {bag_id} scored {score!r}, " \
            f"recorded {recorded[bag_id]!r}"
    extra = {k for k in expected if k not in ("ids", "scores", "accuracy")}
    for key in extra:
        assert actual[key] == expected[key], f"{where}: {key}"


@pytest.fixture(scope="module")
def golden():
    if REGEN:
        doc: dict = (json.loads(FIXTURE.read_text())
                     if FIXTURE.exists() else {})
        yield doc
        FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    else:
        yield json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_rankings(name, clips, golden, tmp_path):
    rounds = CASES[name](clips, tmp_path)
    if REGEN:
        golden[name] = rounds
        return
    expected = golden[name]
    assert len(rounds) == len(expected), name
    for r, (want, got) in enumerate(zip(expected, rounds)):
        assert_round_matches(want, got, f"{name} round {r}")
