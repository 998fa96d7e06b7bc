"""Bench: the §5.4 sampling-rate sweep (scope-rate requirement)."""

from conftest import run_once

from repro.experiments import sampling_rate


def test_sampling_rate_sweep(benchmark, bench_scale, save_result):
    table = run_once(benchmark, lambda: sampling_rate.run(bench_scale))
    save_result("sampling_rate", table.render())
    general = table.column("general SR (%)")
    # Full rate must be near-perfect; heavy decimation must degrade.
    assert general[0] >= 97.0  # paper Fig. 5b: group-1 SR 99.7 % (SVM)
    assert general[0] >= general[-1] - 1.0
    # Majority voting keeps working with few variables at moderate rates.
    voting = table.column("voting@3 SR (%)")
    assert voting[1] >= 75.0  # paper Fig. 6: voting@3 82.0-85 % (undecimated)
