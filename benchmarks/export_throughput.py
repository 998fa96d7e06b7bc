"""Export throughput numbers to ``BENCH_throughput.json``.

Usage::

    python -m pytest benchmarks/bench_throughput.py \
        --benchmark-json=/tmp/bench_raw.json -q
    python benchmarks/export_throughput.py /tmp/bench_raw.json [--check]

The emitted file records, per benchmark, the mean/min wall time of this
run.  The benchmarks in :data:`SEED_BASELINE_MS` also get
``seed_mean_ms`` and ``speedup_vs_seed`` against a frozen baseline
measured before the matching fast path landed; no other benchmark has a
seed baseline.

Benchmarks that ship with a serial reference twin run in the same
session (``*_reference_throughput`` / ``*_serial_throughput``)
additionally get ``speedup_vs_reference`` — a scale-independent
fast-vs-slow ratio from the same machine state, which is what the
training-stack acceptance numbers are read from.

With ``--check``, exits non-zero if any frozen-baseline benchmark falls
below 1.0x vs seed, any benchmark named in :data:`MIN_REFERENCE_SPEEDUP`
falls below its required ``speedup_vs_reference``, or any of these gated
benchmarks (or a required reference twin) is missing from the run — the
CI smoke gate against perf regressions.

Every export also appends a ``bench.throughput`` record (the per-bench
means) to the run ledger (:mod:`repro.obs.ledger`), building the history
behind ``python -m repro.obs diff``.  With ``--ledger-gate``, this run
is additionally diffed against the most recent *prior* ``bench.throughput``
ledger record and exits non-zero when any benchmark regressed beyond
``REPRO_LEDGER_DIFF_PCT`` — a same-ledger (usually same-machine) check
that complements the frozen-seed gate.  The gate passes vacuously when
the ledger has no prior record (fresh checkout).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

#: Frozen baseline means (ms), measured with pytest-benchmark on the
#: reference machine (Intel Xeon @ 2.10GHz, 1 core) before the matching
#: fast path landed.  ``test_capture_class_parallel_throughput`` is
#: frozen at the value from before the workload-size heuristic, when a
#: single-core host paid the worker-pool overhead on every capture.
#: Only these benchmarks carry ``seed_mean_ms`` / ``speedup_vs_seed``.
SEED_BASELINE_MS = {
    "test_classify_batch_throughput": 76.327,
    "test_cwt_full_plane_throughput": 68.984,
    "test_simulator_throughput": 33.540,
    "test_render_throughput": 12.682,
    "test_capture_class_parallel_throughput": 79.364,
}

#: Fast benchmark -> serial-reference benchmark measured in the same run.
REFERENCE_PAIRS = {
    "test_compiled_classify_throughput":
        "test_compiled_classify_reference_throughput",
    "test_dnvp_selector_fit_throughput":
        "test_dnvp_selector_fit_reference_throughput",
    "test_level_train_throughput": "test_level_train_reference_throughput",
    "test_ovo_fit_throughput": "test_ovo_fit_reference_throughput",
    "test_hierarchy_predict_throughput":
        "test_hierarchy_predict_reference_throughput",
    "test_render_throughput": "test_render_serial_throughput",
}

#: Same-machine fast-vs-reference ratios CI requires (``--check``).  The
#: compiled classify path's whole reason to exist is a large constant
#: factor over the staged path, so a collapse below 5x is a regression
#: even when absolute times look fine.
MIN_REFERENCE_SPEEDUP = {
    "test_compiled_classify_throughput": 5.0,
}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def export(raw_path: str, output: Path = OUTPUT) -> dict:
    raw = json.loads(Path(raw_path).read_text())
    means = {
        bench["name"]: bench["stats"]["mean"] * 1e3
        for bench in raw["benchmarks"]
    }
    results = {}
    for bench in raw["benchmarks"]:
        name = bench["name"]
        mean_ms = means[name]
        row = {
            "mean_ms": round(mean_ms, 3),
            "min_ms": round(bench["stats"]["min"] * 1e3, 3),
        }
        seed_ms = SEED_BASELINE_MS.get(name)
        if seed_ms is not None:
            row["seed_mean_ms"] = seed_ms
            row["speedup_vs_seed"] = round(seed_ms / mean_ms, 2)
        reference = REFERENCE_PAIRS.get(name)
        if reference is not None and reference in means:
            row["reference_mean_ms"] = round(means[reference], 3)
            row["speedup_vs_reference"] = round(means[reference] / mean_ms, 2)
        results[name] = row
    document = {
        "machine": raw.get("machine_info", {})
        .get("cpu", {})
        .get("brand_raw", "unknown"),
        "benchmarks": results,
    }
    output.write_text(json.dumps(document, indent=2) + "\n")
    return document


def check(document: dict) -> List[str]:
    """Human-readable failures for the CI gate (empty = pass).

    Gated: ``speedup_vs_seed >= 1.0`` for every benchmark in
    :data:`SEED_BASELINE_MS`, and the ``speedup_vs_reference`` floors in
    :data:`MIN_REFERENCE_SPEEDUP`.  A gated benchmark missing from the
    run fails too, so renaming or deselecting one cannot pass the gate.
    """
    rows = document["benchmarks"]
    failures = []
    for name in SEED_BASELINE_MS:
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: gated benchmark missing from the run")
        elif row["speedup_vs_seed"] < 1.0:
            failures.append(
                f"{name}: {row['speedup_vs_seed']}x vs seed (need >= 1.0)"
            )
    for name, floor in MIN_REFERENCE_SPEEDUP.items():
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: gated benchmark missing from the run")
            continue
        ratio: Optional[float] = row.get("speedup_vs_reference")
        if ratio is None:
            failures.append(
                f"{name}: reference twin "
                f"{REFERENCE_PAIRS[name]} missing from the run"
            )
        elif ratio < floor:
            failures.append(
                f"{name}: {ratio}x vs reference (need >= {floor}x)"
            )
    return failures


def record_to_ledger(document: dict) -> Optional[dict]:
    """Append this export's means as a ``bench.throughput`` ledger record.

    Best-effort: returns ``None`` (never raises) when :mod:`repro` is
    not importable from this checkout or the ledger is disabled.
    """
    try:
        from repro.obs import ledger
    except ImportError:
        return None
    return ledger.record_run(
        "bench.throughput",
        status="ok",
        bench={
            name: row["mean_ms"]
            for name, row in document["benchmarks"].items()
        },
        extra={"machine": document.get("machine", "unknown")},
    )


def ledger_gate(record: Optional[dict]) -> List[str]:
    """Failures from diffing this export against the prior ledger bench.

    Vacuously passes when the ledger is disabled, has no prior
    ``bench.throughput`` record, or nothing regressed beyond
    ``REPRO_LEDGER_DIFF_PCT``.
    """
    if record is None:
        return []
    from repro.obs import ledger

    history = [
        r
        for r in ledger.read_ledger()
        if r.get("entry") == "bench.throughput"
        and r.get("run_id") != record.get("run_id")
    ]
    if not history:
        return []
    result = ledger.diff_runs(history[-1], record)
    return [
        f"{row['name']}: {row['old']} -> {row['new']} ms "
        f"({row['pct']:+.1f}% vs run {result['old_run']}, "
        f"threshold {result['threshold_pct']}%)"
        for row in result["regressions"]
    ]


if __name__ == "__main__":
    flags = {"--check", "--ledger-gate"}
    args = [a for a in sys.argv[1:] if a not in flags]
    if len(args) != 1:
        sys.exit(__doc__)
    doc = export(args[0])
    for name, row in doc["benchmarks"].items():
        parts = []
        if "speedup_vs_seed" in row:
            parts.append(f"{row['speedup_vs_seed']}x vs seed")
        if "speedup_vs_reference" in row:
            parts.append(f"{row['speedup_vs_reference']}x vs reference")
        note = f"  ({', '.join(parts)})" if parts else ""
        print(f"{name}: {row['mean_ms']} ms{note}")
    ledger_record = record_to_ledger(doc)
    failed = []
    if "--check" in sys.argv[1:]:
        failed.extend(check(doc))
    if "--ledger-gate" in sys.argv[1:]:
        ledger_failures = ledger_gate(ledger_record)
        if ledger_failures:
            failed.extend(ledger_failures)
        else:
            print("ledger gate: no regression vs prior bench.throughput run")
    if "--check" in sys.argv[1:] or "--ledger-gate" in sys.argv[1:]:
        if failed:
            print("FAIL: " + "; ".join(failed))
            sys.exit(1)
        print("OK: all benchmark gates passed")
