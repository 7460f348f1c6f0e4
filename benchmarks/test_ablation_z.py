"""Ablation of Eq. (9)'s slack z (paper Section 5.3: "z=0.05 works well").

Run with ``training_policy='all'`` so the h/H term of Eq. (9) is active
and z genuinely moves the One-class SVM's outlier fraction.
"""

from benchmarks.conftest import record_experiment
from repro.eval import ablation_z


def test_z_slack(benchmark):
    result = benchmark.pedantic(
        lambda: ablation_z(zs=(0.0, 0.01, 0.05, 0.1, 0.2), seed=1),
        rounds=1, iterations=1)
    record_experiment(result)
    finals = {label: accs[-1] for label, accs in result.series.items()}
    # z must actually change the trained nu.
    nus = {label: p.extras["last_nu"]
           for label, p in result.protocols.items()}
    assert len(set(round(v, 4) for v in nus.values())) > 1
    # The paper's z=0.05 is within one top-20 slot of the best setting.
    assert finals["z=0.05"] >= max(finals.values()) - 0.05 - 1e-9
