"""Paper Figure 9 workload: multi-vehicle collisions at an intersection.

Clip 2 of the paper: a busy crossing with turning traffic, near-miss
panic brakes and scheduled two-vehicle collisions.  Accidents here
involve two or more vehicles, which is exactly the case the Multiple
Instance Learning mapping exists for: the user labels a whole Video
Sequence, and the engine works out which Trajectory Sequences matter.

Run:  python examples/intersection_retrieval.py
"""

from repro.core import MILRetrievalEngine, OracleUser, RetrievalSession
from repro.eval import build_artifacts
from repro.sim import intersection


def main() -> None:
    sim = intersection(seed=1)
    print(f"simulated {sim.n_frames}-frame intersection clip: "
          f"{sum(r.kind == 'collision' for r in sim.incidents)} collisions")

    artifacts = build_artifacts(sim, mode="vision")
    dataset = artifacts.dataset
    print(f"dataset: {len(dataset)} bags, {dataset.n_instances} instances "
          f"({dataset.n_instances / len(dataset):.1f} TSs per VS — "
          f"multi-vehicle scenes)")

    engine = MILRetrievalEngine(dataset)
    user = OracleUser(artifacts.ground_truth)
    session = RetrievalSession(engine, user, top_k=20)
    session.run(5)
    print(f"accuracy per round: "
          f"{['%.0f%%' % (a * 100) for a in session.accuracies()]}")

    # Show which vehicles the engine considers responsible in the top hit:
    # the MIL promise is bag-level labels -> instance-level insight.
    top_id = engine.top_k(1)[0]
    top_bag = dataset.bag_by_id(top_id)
    print(f"\ntop Video Sequence: frames {top_bag.frame_lo}-"
          f"{top_bag.frame_hi} with {top_bag.n_instances} vehicles:")
    for explanation in engine.explain(top_id):
        channel, value = explanation.peak_feature()
        print(f"  #{explanation.rank} track {explanation.track_id:3d}: "
              f"decision {explanation.score:+.4f}  "
              f"(peak feature: {channel} = {value:+.2f})")
    print("the highest-scoring Trajectory Sequences are the vehicles the "
          "engine believes were involved.")


if __name__ == "__main__":
    main()
