"""Bench: multi-session profiling extension (a documented negative result)."""

from conftest import run_once

from repro.experiments import multisession


def test_multisession_profiling(benchmark, bench_scale, save_result):
    table = run_once(benchmark, lambda: multisession.run(bench_scale))
    save_result("multisession", table.render())
    rows = {
        (row["training"], row["config"]): row["SR (%)"] for row in table.rows
    }
    # CSA rescues either way; without it the unseen session is chance.
    # Paper Table 3: 18.5 % (QDA) / 19.2 % (SVM) without CSA.
    assert rows[("1 session", "no CSA")] <= 60.0
    # Paper Table 3: 92.0 % (QDA) / 93.2 % (SVM) with CSA + normalization.
    assert rows[("1 session", "CSA")] >= 85.0
    # No paper value: multi-session training is an extension.
    assert rows[("2 sessions", "CSA")] >= 75.0
    # The negative result: extra sessions do not beat single-session CSA
    # (batch normalization already absorbs session drift).
    assert rows[("2 sessions", "CSA")] <= rows[("1 session", "CSA")] + 3.0
