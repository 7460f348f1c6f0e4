"""Extension benchmark: MIL algorithm comparison (paper Section 2.1).

The paper reviews Diverse Density and EM-DD as the classic MIL solvers
and argues for One-class SVM; this bench runs all of them plus the
Weighted_RF baseline through the same protocol.
"""

from benchmarks.conftest import record_experiment
from repro.eval import mil_algorithms


def test_mil_algorithm_comparison(benchmark):
    result = benchmark.pedantic(
        lambda: mil_algorithms(seed=1), rounds=1, iterations=1)
    record_experiment(result)
    series = result.series
    gains = {m: accs[-1] - accs[0] for m, accs in series.items()}
    # Every MIL engine completes 5 rounds and at least one MIL engine
    # strictly beats the weighted-RF baseline's gain.
    assert all(len(a) == 5 for a in series.values())
    assert max(gains["OCSVM"], gains["DD"], gains["EM-DD"]) \
        > gains["Weighted_RF"]
    # The paper's chosen engine does not lose to the DD family here.
    assert series["OCSVM"][-1] >= max(series["DD"][-1],
                                      series["EM-DD"][-1]) - 0.10
