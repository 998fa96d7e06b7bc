#!/usr/bin/env python3
"""Run one benchmark workload, check its output and print its metrics.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``workloads.py``): ``profile``, ``retrain``, ``firmware``;
``all`` runs each in turn, in its own process.
Each is a closed loop with one client in one process: serial capture
(``n_jobs=1``) and one BLAS thread.  A run sets up once, then repeats
measured passes until ``--seconds`` have passed, checking the output of
every pass; a run measures at least three passes.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; set-up
is timed in this process and in fresh processes, and reported as the
median.  ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics, plus the tracing cost.  Every line but the last
is for people; the last is one JSON object.  Results go to
``.perfbench/`` (compare two with ``compare.py``).  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import fingerprint  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
N_JOBS = 1
#: Set-ups per run: this process plus fresh ones, so imports count.
SETUP_RUNS = 3
#: Fewest passes a run measures, so each median has three samples even
#: when a pass is longer than a third of ``--seconds``.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def configure_environment() -> None:
    """Pin threads and knobs before numpy loads.

    Every ``REPRO_*`` knob is cleared, so obs spans stay off; the run
    ledger is switched off and capture is serial.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_LEDGER"] = "0"
    os.environ["REPRO_N_JOBS"] = str(N_JOBS)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = str(BLAS_THREADS)


@dataclass
class PassRecord:
    """One measured pass: its time, its output and what was wrong with it."""

    wall_s: float
    traced: bool
    result: object
    problems: List[str]
    layers: Optional[Dict[str, float]] = None


def timed_pass(workload, tracer) -> PassRecord:
    """Run, time and check one pass; a pass that raises is a failed pass."""
    first = len(tracer.spans) if tracer is not None else 0
    gc.collect()
    started = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run_pass()
        else:
            with tracer, tracer.span(ROOT_SPAN):
                result = workload.run_pass()
        wall = time.perf_counter() - started
        problems = workload.check(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return PassRecord(
            time.perf_counter() - started, tracer is not None, None,
            [f"{type(exc).__name__}: {exc}"],
        )
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.totals(first))
    return PassRecord(wall, tracer is not None, result, problems, layers)


def run_passes(workload, reference, seconds: float, tracer):
    """Closed loop: start passes until ``seconds`` have passed.

    Without a tracer, at least :data:`MIN_PASSES` passes run.  With one,
    passes alternate untraced and traced, at least one of each.  Every
    pass must repeat the SRs of ``reference`` (the set-up pass, or else
    the first pass).  Returns the pass records and the reference.
    """
    passes: List[PassRecord] = []
    minimum = 2 if tracer is not None else MIN_PASSES
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        record = timed_pass(workload, tracer if traced else None)
        if record.result is not None:
            if reference is None:
                reference = record.result
            elif record.result.levels != reference.levels:
                record.problems.append(
                    "SRs differ from an earlier pass of the same seed"
                )
        passes.append(record)
        for problem in record.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    return passes, reference


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of this workload in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True, cwd=ROOT,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    p25, _, p75 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, p25 {p25:.4f}, p75 {p75:.4f}"


def end_to_end(passes, setups, reference) -> Dict[str, tuple]:
    """``name -> (value, note)`` for every end-to-end metric."""
    walls = [p.wall_s for p in passes if not p.traced]
    per_correct = [
        p.wall_s * 1000.0 / p.result.n_correct
        for p in passes
        if not p.traced and p.result is not None and p.result.n_correct
    ]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), spread(setups) + " set-ups"),
        "wall_s": (statistics.median(walls), spread(walls) + " passes"),
        "peak_rss_mb": (peak_mb, "process peak"),
    }
    if per_correct:
        metrics["ms_per_correct"] = (
            statistics.median(per_correct),
            f"{spread(per_correct)} passes, "
            f"{reference.n_correct} correct windows a pass",
        )
    if reference is not None:
        metrics["sr_opcode_pct"] = (reference.sr_opcode_pct, "every pass")
        metrics["sr_combined_pct"] = (reference.sr_combined_pct, "every pass")
    return metrics


def per_layer(passes) -> Dict[str, tuple]:
    """``name -> (value, note)``: medians over traced passes."""
    traced = [p for p in passes if p.traced and p.layers is not None]
    untraced = [p.wall_s for p in passes if not p.traced]
    if not traced:
        return {}
    metrics = {
        name: (
            statistics.median(p.layers[name] for p in traced),
            f"median of {len(traced)} traced passes",
        )
        for name in traced[0].layers
    }
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace_overhead_frac"] = (
        traced_wall / statistics.median(untraced) - 1.0,
        f"traced {traced_wall:.4f} s against untraced "
        f"{statistics.median(untraced):.4f} s",
    )
    return metrics


def run_all(args, spec) -> int:
    """Run every workload of ``spec`` in its own process, one after another."""
    failed = []
    for entry in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", entry["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        if done.returncode != 0:
            failed.append(entry["name"])
    total = len(spec["workloads"])
    print(f"perfbench all: {total - len(failed)} of {total} workloads passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time and exit (fresh-process timing)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source in {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    configure_environment()
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    reference = workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    machine = fingerprint.collect(ROOT, N_JOBS)
    tracer = Tracer() if args.trace else None
    passes, reference = run_passes(workload, reference, args.seconds, tracer)
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        wanted, values = spec["per_layer"], per_layer(passes)
    else:
        setups = [setup_s] + [
            child_setup_s(args.workload, args.seed)
            for _ in range(SETUP_RUNS - 1)
        ]
        wanted, values = spec["end_to_end"], end_to_end(
            passes, setups, reference
        )
    failed = sum(1 for p in passes if p.problems)
    correct = failed == 0 and all(m["name"] in values for m in wanted)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            continue
        value, note = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<36} {value:>14.6g} {metric['unit']:<12} {note}")
    print(f"  {'failed_frac':<36} {failed / len(passes):>14.6g} "
          f"{'ratio':<12} {failed} of {len(passes)} passes")
    if reference is not None and reference.abstain_pct is not None:
        print(f"  {'abstain_pct':<36} {reference.abstain_pct:>14.6g} "
              f"{'%':<12} every pass")
    print(f"  fingerprint {json.dumps(machine, sort_keys=True)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": machine, "metrics": metrics,
        "passes": [
            {"wall_s": p.wall_s, "traced": p.traced, "problems": p.problems}
            for p in passes
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct, "attempted": len(passes), "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
