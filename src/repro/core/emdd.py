"""EM-DD MIL baseline (Zhang & Goldman, paper ref [7]).

EM-DD speeds up and robustifies Diverse Density: the E-step picks, per
bag, the single instance most likely to be the concept under the current
hypothesis; the M-step then solves the much easier single-instance DD
problem; the two steps alternate until the likelihood stops improving.
The paper's review notes EM-DD "is more robust in dealing with
high-dimension data", which is why it is the interesting comparator for
the 9-dimensional TS vectors here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from repro.core.bags import MILDataset
from repro.core.diverse_density import (
    DiverseDensityRule,
    dd_instance_prob,
)
from repro.core.engine import MILRetrievalEngine
from repro.utils import check_positive

__all__ = ["EMDDEngine", "EMDDRule"]

_PROB_EPS = 1e-10


def _single_instance_nll(params: np.ndarray, positives: np.ndarray,
                         negatives: np.ndarray) -> float:
    """DD objective when each bag is reduced to one responsible instance."""
    d = len(params) // 2
    target, scales = params[:d], params[d:]
    nll = 0.0
    if len(positives):
        p = dd_instance_prob(positives, target, scales)
        nll -= np.sum(np.log(np.maximum(p, _PROB_EPS)))
    if len(negatives):
        p = dd_instance_prob(negatives, target, scales)
        nll -= np.sum(np.log(np.maximum(1.0 - p, _PROB_EPS)))
    return float(nll)


@dataclass(frozen=True, kw_only=True)
class EMDDRule(DiverseDensityRule):
    """Diverse Density trained with the EM-DD alternation."""

    em_iterations: int = 10
    em_tol: float = 1e-4

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("em_iterations", self.em_iterations)
        object.__setattr__(self, "em_iterations", int(self.em_iterations))
        object.__setattr__(self, "em_tol", float(self.em_tol))

    def _optimize(self, start: np.ndarray, positive: list[np.ndarray],
                  negative: list[np.ndarray]) -> tuple[float, np.ndarray]:
        d = len(start)
        params = np.concatenate([start, np.full(d, 0.7)])
        best_nll = np.inf
        for _ in range(self.em_iterations):
            target, scales = params[:d], params[d:]
            # E-step: most responsible instance per bag.
            positives = np.stack([
                bag[int(np.argmax(dd_instance_prob(bag, target, scales)))]
                for bag in positive
            ])
            if negative:
                negatives = np.stack([
                    bag[int(np.argmax(dd_instance_prob(bag, target, scales)))]
                    for bag in negative
                ])
            else:
                negatives = np.empty((0, d))
            # M-step: single-instance optimization.
            result = minimize(
                _single_instance_nll,
                params,
                args=(positives, negatives),
                method="L-BFGS-B",
                options={"maxiter": self.max_iter},
            )
            params = result.x
            nll = float(result.fun)
            if best_nll - nll < self.em_tol:
                best_nll = min(best_nll, nll)
                break
            best_nll = nll
        return best_nll, params


class EMDDEngine(MILRetrievalEngine):
    """The MIL engine over :class:`EMDDRule`."""

    def __init__(self, dataset: MILDataset, *, max_starts: int = 8,
                 max_iter: int = 200, em_iterations: int = 10,
                 em_tol: float = 1e-4) -> None:
        super().__init__(dataset, rule=EMDDRule, max_starts=max_starts,
                         max_iter=max_iter, em_iterations=em_iterations,
                         em_tol=em_tol)
