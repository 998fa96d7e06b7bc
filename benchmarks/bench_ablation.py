"""Bench: ablations of the design choices DESIGN.md calls out."""

from conftest import run_once

from repro.experiments import ablations


def test_ablation_cwt_vs_time(benchmark, bench_scale, save_result):
    table = run_once(benchmark, lambda: ablations.run_cwt_ablation(bench_scale))
    save_result("ablation_cwt", table.render())
    cwt_row, time_row = table.rows
    # Time-frequency features must be at least competitive under jitter.
    assert cwt_row["SR (%)"] >= time_row["SR (%)"] - 2.0
    assert cwt_row["SR (%)"] >= 97.0  # paper Fig. 5b: group-1 SR 99.7 % (SVM)


def test_ablation_selection_strategy(benchmark, bench_scale, save_result):
    table = run_once(
        benchmark, lambda: ablations.run_selection_ablation(bench_scale)
    )
    save_result("ablation_selection", table.render())
    by_name = {row["selection"]: row["SR (%)"] for row in table.rows}
    dnvp = by_name["KL DNVP (within-filtered)"]
    variance = by_name["variance ranking (no KL)"]
    assert dnvp >= 97.0  # paper Fig. 5b: group-1 SR 99.7 % (SVM)
    assert dnvp > variance  # KL selection targets class information


def test_ablation_hierarchy_vs_flat(benchmark, bench_scale, save_result):
    table = run_once(
        benchmark, lambda: ablations.run_hierarchy_ablation(bench_scale)
    )
    save_result("ablation_hierarchy", table.render())
    flat_row, hier_row = table.rows
    # No paper SR for a flat classifier; the paper counts 218 vs 6216
    # one-vs-one machines at 112 classes.
    assert hier_row["SR (%)"] >= flat_row["SR (%)"] - 3.0
    assert (
        hier_row["1v1 machines (SVM equivalent)"]
        < flat_row["1v1 machines (SVM equivalent)"]
    )
