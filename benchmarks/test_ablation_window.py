"""Ablation of the sliding-window size (paper Section 5.1).

The paper sets the window to the typical event length: a car crash spans
~15 frames = 3 sampling points at 5 frames/point.  We sweep the window
size and check the paper's choice is at or near the best final accuracy.
"""

from benchmarks.conftest import record_experiment
from repro.eval import ablation_window


def test_window_size(benchmark):
    result = benchmark.pedantic(
        lambda: ablation_window(windows=(2, 3, 5, 7), seed=0),
        rounds=1, iterations=1)
    record_experiment(result)
    finals = {label: accs[-1] for label, accs in result.series.items()}
    best = max(finals.values())
    # window=3 within one top-20 slot of the best choice.
    assert finals["window=3"] >= best - 0.05 - 1e-9
