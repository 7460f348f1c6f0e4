"""Other event types (paper Section 4): U-turn and speeding queries.

"It is worth mentioning that this event model may also be adjusted to
detect U-turns, speeding and any other event that involves the abnormal
behavior of a vehicle."  We run the adjusted event models on the highway
workload and check both queries are learnable.
"""

from benchmarks.conftest import record_experiment
from repro.eval import other_events


def test_uturn_and_speeding(benchmark):
    result = benchmark.pedantic(
        lambda: other_events(seed=2), rounds=1, iterations=1)
    record_experiment(result)
    for event, accs in result.series.items():
        assert accs[-1] >= accs[0], f"{event}: accuracy regressed"
        assert max(accs) > 0.2, f"{event}: query never found its events"
