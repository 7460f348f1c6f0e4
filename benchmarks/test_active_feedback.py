"""Active vs passive relevance feedback (extension experiment).

The paper's protocol is pure exploitation (label the top-20).  Reserving
a few slots per round for uncertainty sampling consistently *discovers*
more of the relevant population — the effect this bench asserts — while
its impact on the final ranking varies by workload (recorded, not
asserted).
"""

from repro.core import MILRetrievalEngine, OracleUser, RetrievalSession
from repro.core.active import ActiveRetrievalSession
from repro.eval import build_artifacts
from repro.eval.metrics import accuracy_at_k
from repro.sim import intersection, tunnel


def _relevant_found(session) -> int:
    return sum(1 for v in session.engine.labels.values() if v)


def test_active_discovers_more_relevant(benchmark):
    def run():
        rows = []
        for sim in (tunnel(seed=0), intersection(seed=1)):
            artifacts = build_artifacts(sim, mode="oracle")
            rel = artifacts.relevant_bag_ids
            per_mode = {}
            for label, session_cls, kwargs in (
                ("passive", RetrievalSession, {}),
                ("active", ActiveRetrievalSession, {"explore_k": 5}),
            ):
                engine = MILRetrievalEngine(artifacts.dataset)
                session = session_cls(
                    engine, OracleUser(artifacts.ground_truth),
                    top_k=20, **kwargs)
                session.run(5)
                per_mode[label] = {
                    "found": _relevant_found(session),
                    "rank_acc": accuracy_at_k(engine.rank(), rel, 20),
                }
            rows.append((sim.name, len(rel), per_mode))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for clip, n_rel, per_mode in rows:
        print(f"{clip}: relevant={n_rel} "
              f"passive found {per_mode['passive']['found']} "
              f"(rank@20 {per_mode['passive']['rank_acc']:.0%}), "
              f"active found {per_mode['active']['found']} "
              f"(rank@20 {per_mode['active']['rank_acc']:.0%})")
        # Exploration never discovers fewer relevant bags.
        assert per_mode["active"]["found"] >= per_mode["passive"]["found"]
