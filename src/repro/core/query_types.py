"""Query types beyond "query by event name" (paper Section 7).

"Currently, the framework only supports the user's query by specified
event types.  We will extend this to include query by example, query by
sketches, and allow a customized combination of different query types."

Implemented here:

* :class:`ExampleQueryEngine` — the user supplies one or more example
  Trajectory Sequences (e.g. from a clip they already found); the
  *initial* round ranks by kernel similarity to the examples instead of
  the generic square-sum heuristic.  Feedback rounds then proceed exactly
  as in the base engine.
* :func:`sketch_to_example` — the user sketches a trajectory as a
  polyline with implied timing (one point per frame); it is converted
  through the standard feature extractor into an example TS vector, so a
  sketch query is an example query.
* :class:`CombinedQueryEngine` — a weighted mixture of initial rankings
  (event heuristic + any number of example sets), the paper's
  "customized combination of different query types".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bags import MILDataset
from repro.core.engine import MILRetrievalEngine
from repro.core.heuristics import heuristic_scores
from repro.errors import ConfigurationError
from repro.events.features import SamplingConfig, extract_series
from repro.events.models import EventModel
from repro.tracking.track import Track
from repro.utils import pairwise_sq_dists
from repro.vision.blobs import Blob

__all__ = [
    "similarity_scores",
    "ExampleQueryEngine",
    "sketch_to_example",
    "CombinedQueryEngine",
]


def _as_matrix(vectors, dim: int) -> np.ndarray:
    matrix = np.atleast_2d(np.asarray(vectors, dtype=float))
    if matrix.shape[1] != dim:
        raise ConfigurationError(
            f"example vectors have {matrix.shape[1]} features, dataset "
            f"instances have {dim}"
        )
    return matrix


def similarity_scores(
    dataset: MILDataset,
    example_vectors,
    *,
    scaler=None,
    gamma: float | None = None,
) -> tuple[np.ndarray, dict[int, float]]:
    """RBF similarity of every instance to its nearest example.

    Returns ``(bag_scores, instance_scores)`` in the same layout the
    heuristic produces, so the result can replace the initial ranking.
    """
    instances = dataset.all_instances()
    if not instances:
        raise ConfigurationError("dataset has no instances to score")
    x = np.stack([inst.vector for inst in instances])
    examples = _as_matrix(example_vectors, x.shape[1])
    if scaler is not None:
        x = scaler.transform(x)
        examples = scaler.transform(examples)
    if gamma is None:
        gamma = 1.0 / x.shape[1]
    sims = np.exp(-gamma * pairwise_sq_dists(x, examples)).max(axis=1)
    instance_scores = {
        inst.instance_id: float(s) for inst, s in zip(instances, sims)
    }
    bag_scores = np.full(len(dataset.bags), -np.inf)
    for b, bag in enumerate(dataset.bags):
        for inst in bag.instances:
            bag_scores[b] = max(bag_scores[b],
                                instance_scores[inst.instance_id])
    return bag_scores, instance_scores


class ExampleQueryEngine(MILRetrievalEngine):
    """MIL retrieval whose initial round is query-by-example.

    ``examples`` is a sequence of TS vectors (flattened window x feature
    matrices) — e.g. ``instance.vector`` of hits from a previous session,
    or the output of :func:`sketch_to_example`.

    ``use_scaler`` controls the similarity space: dataset-standardized
    (default, right for examples taken from real instances) or raw
    feature units (right for sketch-derived examples, which carry no
    inter-vehicle-distance context and would be pushed away from real
    events by standardization).
    """

    def __init__(self, dataset: MILDataset, examples, *,
                 use_scaler: bool = True, **kwargs) -> None:
        super().__init__(dataset, **kwargs)
        # The per-bag training order follows the (replaced) initial scores.
        self.shard.set_initial_scores(*similarity_scores(
            dataset, examples,
            scaler=self._ensure_standardized() if use_scaler else None))


def sketch_to_example(
    points: np.ndarray,
    model: EventModel,
    *,
    config: SamplingConfig | None = None,
    window_size: int = 3,
) -> np.ndarray:
    """Convert a sketched trajectory into an example TS vector.

    ``points`` is an (n, 2) polyline with one point per frame (the user
    sketches both shape and speed).  The sketch is run through the exact
    feature extractor used for real tracks, and the ``window_size``-
    checkpoint window with the strongest activity becomes the example.
    Distance-based channels (``inv_mdist``) are zero for a lone sketch.
    """
    cfg = config or SamplingConfig()
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    min_frames = cfg.sampling_rate * (window_size + 2)
    if len(points) < min_frames:
        raise ConfigurationError(
            f"sketch too short: needs >= {min_frames} points at one point "
            f"per frame, got {len(points)}"
        )
    track = Track(-1)
    for frame, (x, y) in enumerate(points):
        blob = Blob(cx=float(x), cy=float(y), x0=int(x) - 4, y0=int(y) - 3,
                    x1=int(x) + 4, y1=int(y) + 3, area=48,
                    mean_intensity=200.0)
        track.add(frame, blob)
    series = extract_series([track], cfg)
    if not series:
        raise ConfigurationError("sketch produced no checkpoints")
    matrix = model.feature_matrix(series[0])
    if len(matrix) < window_size:
        raise ConfigurationError(
            f"sketch covers only {len(matrix)} checkpoints; window needs "
            f"{window_size}"
        )
    activity = (matrix ** 2).sum(axis=1)
    windows = np.array([
        activity[i : i + window_size].sum()
        for i in range(len(matrix) - window_size + 1)
    ])
    start = int(np.argmax(windows))
    return matrix[start : start + window_size].ravel()


class CombinedQueryEngine(MILRetrievalEngine):
    """Weighted combination of query types for the initial round.

    ``components`` is a sequence of ``(kind, payload, weight)`` with kind
    ``"heuristic"`` (payload ignored) or ``"examples"`` (payload = TS
    vectors).  Scores of each component are min-max normalized before the
    weighted sum so weights are comparable.
    """

    def __init__(self, dataset: MILDataset,
                 components: Sequence[tuple], **kwargs) -> None:
        super().__init__(dataset, **kwargs)
        if not components:
            raise ConfigurationError("need >= 1 query component")
        total_bag = np.zeros(len(dataset.bags))
        total_inst = {i.instance_id: 0.0 for i in dataset.all_instances()}
        weight_sum = 0.0
        for kind, payload, weight in components:
            if weight < 0:
                raise ConfigurationError("component weights must be >= 0")
            if kind == "heuristic":
                bag_scores, inst_scores = heuristic_scores(dataset)
            elif kind == "examples":
                bag_scores, inst_scores = similarity_scores(
                    dataset, payload, scaler=self._ensure_standardized())
            else:
                raise ConfigurationError(
                    f"unknown query component kind {kind!r}"
                )
            bag_scores = _unit_scale(bag_scores)
            inst_values = _unit_scale(np.array(list(inst_scores.values())))
            inst_scores = dict(zip(inst_scores.keys(), inst_values))
            total_bag += weight * bag_scores
            for key, value in inst_scores.items():
                total_inst[key] += weight * value
            weight_sum += weight
        if weight_sum <= 0:
            raise ConfigurationError("total component weight must be > 0")
        self.shard.set_initial_scores(
            total_bag / weight_sum,
            {k: v / weight_sum for k, v in total_inst.items()})


def _unit_scale(values: np.ndarray) -> np.ndarray:
    """Min-max scale finite values to [0, 1] (-inf stays worst)."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return np.zeros_like(values)
    lo, hi = values[finite].min(), values[finite].max()
    span = hi - lo
    out = np.zeros_like(values)
    out[finite] = (values[finite] - lo) / span if span > 0 else 0.5
    return out
