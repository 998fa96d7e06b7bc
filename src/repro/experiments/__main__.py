"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.experiments list
    python -m repro.experiments table3 --scale bench
    python -m repro.experiments all --scale smoke
    python -m repro.experiments endtoend --trace run.jsonl

``--trace PATH`` activates the observability layer for the run (spans,
metrics) and writes the JSONL trace to ``PATH`` on completion; inspect
it with ``python -m repro.obs report PATH``.  The run ledger record
(:func:`repro.obs.ledger.record_run`) carries the run's performance
summary.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .. import obs
from ..obs import log
from . import (
    ablations,
    campaign,
    endtoend,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    malware,
    multisession,
    robustness,
    sampling_rate,
    svm_grid,
    table1,
    table2,
    table3,
    table4,
)
from .results import ResultTable

#: name -> (runner, description).  Runners return a ResultTable, a tuple
#: whose first element is one, or a dict of them.
RUNNERS = {
    "table1": (table1.run, "comparison with prior disassemblers"),
    "table2": (table2.run, "the 8-group instruction partition"),
    "table3": (table3.run, "ADC vs AND with covariate shift adaptation"),
    "table4": (table4.run, "five sibling devices after CSA"),
    "fig1": (fig1.run, "the process flow, with measured dimensions"),
    "fig2": (fig2.run, "DNVP feature-point extraction (ADC vs AND)"),
    "fig3": (fig3.run, "best vs worst feature choice under shift"),
    "fig4": (fig4.run, "pipeline view of the segment template"),
    "fig5": (fig5.run, "SR vs #principal components, 4 classifiers"),
    "fig6": (fig6.run, "majority voting vs the general method"),
    "endtoend": (endtoend.run, "full hierarchy incl. registers (99.03 %)"),
    "svm-grid": (svm_grid.run, "§5.2's SVM grid search with 3-fold CV"),
    "sampling-rate": (
        sampling_rate.run, "SR vs scope rate (the §5.4 argument)"
    ),
    "multisession": (
        multisession.run, "multi-session profiling robustness (extension)"
    ),
    "robustness": (
        robustness.run, "accuracy vs capture faults: raw/screened/abstain"
    ),
    "malware": (malware.run, "the §5.7 masking-removal case study"),
    "ablation-cwt": (ablations.run_cwt_ablation, "CWT vs time domain"),
    "ablation-selection": (
        ablations.run_selection_ablation, "KL DNVP vs variance ranking"
    ),
    "ablation-hierarchy": (
        ablations.run_hierarchy_ablation, "hierarchical vs flat"
    ),
    "campaign": (
        campaign.run, "fault-tolerant sharded collection-factor sweep"
    ),
}


def _print_result(result) -> None:
    if isinstance(result, ResultTable):
        print(result.render())
        return
    if isinstance(result, tuple):
        _print_result(result[0])
        return
    if isinstance(result, dict):
        for value in result.values():
            _print_result(value)
            print()
        return
    print(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the DAC'18 paper's tables and figures "
        "on the simulated bench.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        help="workload preset: smoke | bench | paper (default: bench)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist per-stage checkpoints here (atomic writes); an "
        "interrupted run resumes from the first missing stage.  Only "
        "honoured by runners that support it (endtoend, multisession, "
        "robustness, ablations); one subdirectory per experiment.",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="activate span tracing + metrics for the run (implies "
        "REPRO_OBS=1) and write the JSONL trace here; render it with "
        "'python -m repro.obs report PATH'",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(len(name) for name in RUNNERS)
        for name, (_, description) in RUNNERS.items():
            print(f"{name:<{width}}  {description}")
        return 0

    names = list(RUNNERS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        log.error(f"unknown experiment(s): {unknown}; try 'list'")
        return 2
    if args.trace is not None:
        obs.activate()
    run_started = obs.trace.now_ms()
    for name in names:
        runner, _ = RUNNERS[name]
        started = obs.trace.now_ms()
        with obs.span(f"experiment.{name}", scale=args.scale):  # replint: disable=REP014 -- names are the fixed RUNNERS keys, a bounded literal set
            if name == "table2":
                result = runner()
            else:
                kwargs = {}
                if (
                    args.checkpoint_dir is not None
                    and "checkpoint_dir"
                    in inspect.signature(runner).parameters
                ):
                    # One subdirectory per experiment so 'all' runs don't
                    # collide on the meta fingerprint.
                    kwargs["checkpoint_dir"] = f"{args.checkpoint_dir}/{name}"
                result = runner(args.scale, **kwargs)
        _print_result(result)
        elapsed = (obs.trace.now_ms() - started) / 1e3
        log.info(f"{name} completed in {elapsed:.1f} s")
    summary = obs.maybe_export(args.trace)
    if summary is not None and args.trace is not None:
        log.info(
            f"trace written to {args.trace} "
            f"({summary['n_spans']} spans); render with "
            f"'python -m repro.obs report {args.trace}'"
        )
    duration = (obs.trace.now_ms() - run_started) / 1e3
    obs.record_run(
        f"experiment.{args.experiment}",
        status="ok",
        duration_s=duration,
        extra={"scale": args.scale, "runners": names},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
