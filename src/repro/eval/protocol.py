"""The paper's evaluation protocol (Section 6.2).

Five rounds — Initial, First, Second, Third, Fourth — each returning the
top 20 Video Sequences to the (simulated) user, measuring accuracy as the
relevant fraction of what was returned, and feeding the labels back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.feedback import OracleUser, RetrievalSession
from repro.core.sharded import ShardedRetrievalEngine
from repro.eval.metrics import overall_gain
from repro.eval.pipeline import ClipArtifacts
from repro.errors import ConfigurationError

__all__ = ["ProtocolResult", "MultiSeedResult", "run_protocol",
           "run_protocol_multi"]

#: Round labels the paper uses in Figures 8 and 9.
ROUND_NAMES = ("Initial", "First", "Second", "Third", "Fourth")


@dataclass
class ProtocolResult:
    """Accuracy series for one engine on one clip."""

    method: str
    accuracies: list[float]
    n_relevant_total: int
    n_bags: int
    top_k: int
    extras: dict = field(default_factory=dict)

    @property
    def initial(self) -> float:
        return self.accuracies[0]

    @property
    def final(self) -> float:
        return self.accuracies[-1]

    @property
    def gain(self) -> float:
        return overall_gain(self.accuracies)

    @property
    def ceiling(self) -> float:
        """Best possible accuracy given the relevant population."""
        if self.top_k <= 0:
            return 0.0
        return min(1.0, self.n_relevant_total / self.top_k)


@dataclass
class MultiSeedResult:
    """Protocol outcome aggregated over several workload seeds."""

    method: str
    seeds: tuple[int, ...]
    runs: list[ProtocolResult]
    mean_accuracies: list[float]
    std_accuracies: list[float]

    @property
    def mean_gain(self) -> float:
        return float(np.mean([r.gain for r in self.runs]))

    @property
    def mean_final(self) -> float:
        return float(self.mean_accuracies[-1])


def run_protocol_multi(
    artifacts_for_seed: Callable[[int], ClipArtifacts],
    engine_factory: Callable[..., ShardedRetrievalEngine],
    *,
    seeds: Iterable[int],
    method: str = "",
    **protocol_kwargs,
) -> MultiSeedResult:
    """Run the protocol over several seeds and aggregate.

    Single-seed curves on these small corpora move in 5-point steps
    (one top-20 slot); means over seeds make method comparisons stable.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    runs = [
        run_protocol(artifacts_for_seed(seed), engine_factory,
                     method=method, **protocol_kwargs)
        for seed in seeds
    ]
    curves = np.asarray([r.accuracies for r in runs])
    return MultiSeedResult(
        method=method or runs[0].method,
        seeds=seeds,
        runs=runs,
        mean_accuracies=curves.mean(axis=0).tolist(),
        std_accuracies=curves.std(axis=0).tolist(),
    )


def run_protocol(
    artifacts: ClipArtifacts,
    engine_factory: Callable[..., ShardedRetrievalEngine],
    *,
    method: str = "",
    rounds: int = 5,
    top_k: int = 20,
    kinds: Iterable[str] | None = None,
    flip_prob: float = 0.0,
    user_seed: int = 0,
    **engine_kwargs,
) -> ProtocolResult:
    """Run the 5-round RF protocol for one engine on one clip."""
    if rounds <= 0:
        raise ConfigurationError("rounds must be positive")
    from repro.events.models import event_model_for

    if kinds is None:
        kinds = event_model_for(artifacts.dataset.event_name).relevant_kinds
    engine = engine_factory(artifacts.dataset, **engine_kwargs)
    user = OracleUser(artifacts.ground_truth, kinds, flip_prob=flip_prob,
                      seed=user_seed)
    session = RetrievalSession(engine, user, top_k=top_k)
    session.run(rounds)
    n_relevant = artifacts.ground_truth.n_relevant_windows(
        artifacts.dataset.frame_windows(), kinds)
    return ProtocolResult(
        method=method or type(engine).__name__,
        accuracies=session.accuracies(),
        n_relevant_total=int(n_relevant),
        n_bags=len(artifacts.dataset.bags),
        top_k=top_k,
        extras={"last_nu": engine.last_nu_},
    )
