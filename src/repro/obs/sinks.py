# replint: disable-file=REP003 -- export stamps the run's wall-clock
# duration; no experiment data derives from it.
"""Sinks: turn a :class:`~repro.obs.trace.Collector` into artifacts.

Two outputs, both derived from the same collector state:

* :func:`write_jsonl` — the full trace, one JSON object per line, with
  a ``type`` discriminator (``meta`` / ``span`` / ``counter`` /
  ``gauge`` / ``histogram``).  The format is line-parseable so partial
  files from crashed runs still load, and the report tool
  (:mod:`repro.obs.report`) consumes it directly.
* :func:`summarize` — a compact dict (total spans, top self-time paths,
  cache hit rates, worker utilization) that the run ledger
  (:func:`repro.obs.ledger.record_run`) stores in the record of every
  traced run.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from .trace import Collector

__all__ = ["derive_rates", "maybe_export", "summarize", "write_jsonl"]

FORMAT_VERSION = 1


def write_jsonl(collector: Collector, path: str) -> int:
    """Write the collector's spans + metrics to ``path``; returns line count."""
    lines: List[str] = []
    meta = {
        "type": "meta",
        "format": FORMAT_VERSION,
        "t0": round(collector.t0, 6),
        "duration_s": round(time.time() - collector.t0, 6),
        "n_spans": len(collector.spans),
    }
    lines.append(json.dumps(meta, sort_keys=True))
    for record in collector.spans:
        lines.append(json.dumps(record.as_dict(), sort_keys=True))
    for name, payload in collector.metrics.snapshot().items():
        line = dict(payload)
        line["type"] = line.pop("kind")
        line["name"] = name
        lines.append(json.dumps(line, sort_keys=True))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def derive_rates(metrics: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Derived ratios from a metrics snapshot: cache hit rates, utilization.

    Looks for the conventional ``<cache>.hits`` / ``<cache>.misses``
    counter pairs and the ``parallel.worker_utilization`` gauge; returns
    only the rates whose inputs are present and non-degenerate.
    """
    rates: Dict[str, float] = {}
    for prefix in sorted(
        {
            name.rsplit(".", 1)[0]
            for name in metrics
            if name.endswith(".hits") or name.endswith(".misses")
        }
    ):
        hits = int(metrics.get(f"{prefix}.hits", {}).get("value", 0))
        misses = int(metrics.get(f"{prefix}.misses", {}).get("value", 0))
        if hits + misses:
            rates[f"{prefix}.hit_rate"] = round(hits / (hits + misses), 4)
    utilization = metrics.get("parallel.worker_utilization")
    if utilization is not None:
        rates["parallel.worker_utilization"] = round(
            float(utilization.get("value", 0.0)), 4
        )
    return rates


def summarize(collector: Collector, top: int = 8) -> Dict[str, object]:
    """Compact summary dict for the run ledger record's ``obs`` field.

    Aggregates self time per span *path* and reports the ``top``
    heaviest, plus counter totals and derived rates — small enough to
    ride along in every ledger line without bloating it.
    """
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for record in collector.spans:
        self_ms[record.path] = self_ms.get(record.path, 0.0) + record.self_ms
        calls[record.path] = calls.get(record.path, 0) + 1
    heaviest = sorted(self_ms, key=lambda p: (-self_ms[p], p))[:top]
    metrics = collector.metrics.snapshot()
    counters = {
        name: payload["value"]
        for name, payload in metrics.items()
        if payload.get("kind") == "counter"
    }
    return {
        "format": FORMAT_VERSION,
        "n_spans": len(collector.spans),
        "duration_s": round(time.time() - collector.t0, 3),
        "top_self_ms": [
            {
                "path": path,
                "self_ms": round(self_ms[path], 3),
                "calls": calls[path],
            }
            for path in heaviest
        ],
        "counters": counters,
        "rates": derive_rates(metrics),
    }


def maybe_export(path: Optional[str]) -> Optional[Dict[str, object]]:
    """Export the active collector to ``path`` (if any); returns the summary.

    Convenience for CLI entrypoints: no-op (returning ``None``) when
    observability is disabled; when active, writes the JSONL trace if a
    path was given and always returns the :func:`summarize` dict.
    """
    from .trace import active_collector

    collector = active_collector()
    if collector is None:
        return None
    if path:
        write_jsonl(collector, path)
    return summarize(collector)
