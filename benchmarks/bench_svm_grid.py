"""Bench: §5.2's SVM grid search with 3-fold cross-validation."""

from conftest import run_once

from repro.experiments import svm_grid


def test_svm_grid_search(benchmark, bench_scale, save_result):
    table = run_once(benchmark, lambda: svm_grid.run(bench_scale))
    save_result("svm_grid", table.render())
    held_out = table.rows[-1]["CV SR (%)"]
    assert held_out >= 97.0  # paper Fig. 5b: group-1 SR 99.7 % (SVM)
    cv_scores = [row["CV SR (%)"] for row in table.rows[:-1]]
    best_cv = max(cv_scores)
    assert held_out >= best_cv - 5.0
