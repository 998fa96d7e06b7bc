"""Bench: regenerate Table 1 (comparison with prior disassemblers)."""

from conftest import run_once

from repro.experiments import table1


def test_table1_comparison(benchmark, bench_scale, save_result):
    table = run_once(benchmark, lambda: table1.run(bench_scale))
    save_result("table1", table.render())
    rates = {
        row["method"]: str(row["recognition rate"]) for row in table.rows
    }
    # Our pipeline must beat the re-implemented baselines on this workload.
    ours = float(rates["ours (QDA)"].split()[0])
    msgna = float(rates["Msgna-style PCA+1NN (reimpl.)"].split()[0])
    assert ours > msgna
    assert ours > 95.0  # paper Table 1: 99.03 % incl. registers
