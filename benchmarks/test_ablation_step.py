"""Window-stride ablation (paper Section 5.1 ambiguity).

The paper's sliding-window prose says "one step a time" while its TS
counts imply non-overlapping windows.  Both readings are benchmarked.
"""

from benchmarks.conftest import record_experiment
from repro.eval.experiments import ablation_step


def test_window_stride(benchmark):
    result = benchmark.pedantic(lambda: ablation_step(seed=0),
                                rounds=1, iterations=1)
    record_experiment(result)
    non_overlap = result.series["step=window (non-overlap)"]
    overlap = result.series["step=1 (full overlap)"]
    # Both variants learn from feedback.
    assert non_overlap[-1] >= non_overlap[0]
    assert overlap[-1] >= overlap[0]
    # Overlapping windows inflate the corpus ~window-size-fold.
    n_no = result.metadata["n_bags[step=window (non-overlap)]"]
    n_ov = result.metadata["n_bags[step=1 (full overlap)]"]
    assert n_ov > 2 * n_no
