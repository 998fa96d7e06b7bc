#!/usr/bin/env python3
"""Compare benchmark results of one workload, base against new.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Takes result files written by ``run.py`` (``.perfbench/*.json``), one
per run, and compares each metric's median over the runs of each side.
Refuses, with exit code 2, results whose machine fingerprints differ
(see ``fingerprint.IDENTITY``) or that mix workloads.  Exits 1 when an
end-to-end metric is worse by more than its bound in ``BENCHMARK.json``;
per-layer metrics are printed, never gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from fingerprint import mismatches

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--new", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = [json.loads(p.read_text(encoding="utf-8")) for p in args.base]
    new = [json.loads(p.read_text(encoding="utf-8")) for p in args.new]

    first = base[0]
    for result in base + new:
        differ = mismatches(first["fingerprint"], result["fingerprint"])
        if differ:
            print(f"refusing to compare: fingerprints differ in {differ}",
                  file=sys.stderr)
            return 2
        if (result["workload"], result["trace"]) != (
            first["workload"], first["trace"]
        ):
            print("refusing to compare: results mix workloads or trace modes",
                  file=sys.stderr)
            return 2

    metrics = spec["per_layer"] if first["trace"] else spec["end_to_end"]
    regressed = []
    print(f"{first['workload']}: {len(base)} base runs, {len(new)} new runs")
    for metric in metrics:
        name = metric["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in base)
        b = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (b - a) / abs(a) if a else 0.0
        worse = -change if metric["better"] == "higher" else change
        verdict = ""
        if "bound" in metric and worse > metric["bound"]:
            verdict = f"REGRESSED (bound {metric['bound']:.0%})"
            regressed.append(name)
        print(f"  {name:<36} {a:>12.6g} -> {b:<12.6g} {change:+8.1%} "
              f"{metric['unit']:<12} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
