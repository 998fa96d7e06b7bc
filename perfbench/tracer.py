"""Span tracing around the public entry points of each layer.

The benchmark never edits the program: for a traced pass it swaps each
entry point listed in :data:`TARGETS` for a wrapper that records a span
(name, start, end, parent) in memory, then puts the original back.
Spans are written out once, when the run ends.

A span's self time is its duration minus the time its direct children
cover; everything a pass does outside every layer span is the self time
of the pass's root span, ``experiments``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "experiments"

#: Levels in the hierarchy: groups, G1-G8, Rd and Rr.
N_LEVELS = 11


def _rows(index: int, name: str) -> Callable:
    """Work count: rows of the argument at ``index`` (or keyword ``name``)."""

    def count(args, kwargs, result) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return 1 if getattr(value, "ndim", 2) == 1 else len(value)

    return count


def _len_result(args, kwargs, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is a module path or ``module:Class``; ``attribute`` the
    name looked up on it at call time, so a module-level function is
    wrapped where its caller imported it (``repro.sim.cpu.decode_one``
    is what :class:`~repro.sim.cpu.AvrCpu` calls).
    """

    owner: str
    attribute: str
    span: str
    work: Optional[Callable] = None

    def resolve(self):
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


# The workloads train with QDA (``CLASSIFIERS["QDA"]`` in endtoend), so
# ``ml.fit`` wraps the fit of that template classifier only.
TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.cpu", "decode_one", "isa.decode_one"),
    Target("repro.sim.cpu:AvrCpu", "run", "sim.cpu.run", _len_result),
    Target("repro.power.acquisition", "random_instance",
           "power.random_instance"),
    Target("repro.experiments.workloads", "random_instance",
           "power.random_instance"),
    Target("repro.power.model:PowerModel", "render_events",
           "power.render_events", _rows(1, "events")),
    Target("repro.power.scope:Oscilloscope", "digitize", "power.digitize"),
    Target("repro.power.acquisition:Acquisition", "capture_class",
           "power.capture"),
    Target("repro.power.acquisition:Acquisition", "capture_instruction_set",
           "power.capture"),
    Target("repro.power.acquisition:Acquisition", "capture_register_set",
           "power.capture"),
    Target("repro.power.acquisition:Acquisition", "capture_mixed_program",
           "power.capture"),
    Target("repro.power.acquisition:Acquisition", "capture_program",
           "power.capture"),
    Target("repro.dsp.cwt:CWT", "transform", "dsp.cwt.transform",
           _rows(1, "traces")),
    Target("repro.dsp.cwt:CWT", "transform_points", "dsp.cwt.transform",
           _rows(1, "traces")),
    Target("repro.dsp.cwt:CWT", "point_operator", "dsp.cwt.point_operator"),
    Target("repro.features.pipeline", "compute_class_stats",
           "features.class_stats"),
    Target("repro.features.selection:DnvpSelector", "fit", "features.select"),
    Target("repro.features.pca:PCA", "fit", "features.pca"),
    Target("repro.features.compiled:CompiledPipeline", "build",
           "features.compile"),
    Target("repro.ml.discriminant:QDA", "fit", "ml.fit"),
    Target("repro.core.hierarchy:LevelModel", "predict", "core.predict",
           _rows(1, "windows")),
    Target("repro.core.hierarchy:LevelModel", "predict_with_confidence",
           "core.predict", _rows(1, "windows")),
    Target("repro.core.hierarchy:SideChannelDisassembler", "disassemble",
           "core.disassemble"),
)


class Tracer:
    """In-memory span recorder that wraps :data:`TARGETS` while installed.

    Spans are ``[name, start, end, parent, work]`` lists; ``parent`` is
    the index of the enclosing span or -1.  Calls are serial, so a
    stack of open span indices gives each span its parent.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the pass root)."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index, 0)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(index)
        return index

    def _exit(self, index: int, work: int) -> None:
        self._stack.pop()
        record = self.spans[index]
        record[2] = time.perf_counter()
        record[4] = work

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None):
        """``fn`` recording a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, kwargs, result)
                return result
            finally:
                self._exit(index, count)

        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Swap every target for its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            owner = target.resolve()
            raw = owner.__dict__[target.attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.wrap(target.span, raw.__func__, target.work)
                )
            else:
                wrapped = self.wrap(target.span, raw, target.work)
            self._saved.append((owner, target.attribute, raw))
            setattr(owner, target.attribute, wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back, in reverse order."""
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------------
    def totals(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` and ``work``.

        Only spans from index ``first`` on count, so one tracer can
        serve several passes.
        """
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[3] - first
            if parent >= 0:
                child_time[parent] += record[2] - record[1]
        out: Dict[str, Dict[str, float]] = {}
        for record, children in zip(spans, child_time):
            entry = out.setdefault(
                record[0],
                {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0},
            )
            duration = record[2] - record[1]
            entry["calls"] += 1
            entry["self_s"] += duration - children
            entry["total_s"] += duration
            entry["work"] += record[4]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace_overhead_frac``)."""

    def get(span: str, stat: str) -> float:
        return totals.get(span, {}).get(stat, 0)

    decode_calls = get("isa.decode_one", "calls")
    steps = get("sim.cpu.run", "work")
    root_total = get(ROOT, "total_s")
    values = {
        "isa.decode_one.calls": decode_calls,
        "isa.decode_one.self_s": get("isa.decode_one", "self_s"),
        "sim.cpu.run.self_s": get("sim.cpu.run", "self_s"),
        "sim.steps": steps,
        # A pass that runs no program decodes nothing and hits nothing.
        "sim.decode_hit_ratio": 1.0 - decode_calls / steps if steps else 0.0,
        "power.random_instance.calls": get("power.random_instance", "calls"),
        "power.random_instance.self_s": get("power.random_instance", "self_s"),
        "power.render_events.self_s": get("power.render_events", "self_s"),
        "power.render_events.events": get("power.render_events", "work"),
        "power.digitize.self_s": get("power.digitize", "self_s"),
        "power.capture.self_s": get("power.capture", "self_s"),
        "dsp.cwt.transform.calls": get("dsp.cwt.transform", "calls"),
        "dsp.cwt.transform.self_s": get("dsp.cwt.transform", "self_s"),
        "dsp.cwt.transform.traces": get("dsp.cwt.transform", "work"),
        "dsp.cwt.point_operator.calls": get("dsp.cwt.point_operator", "calls"),
        "dsp.cwt.point_operator.self_s": get(
            "dsp.cwt.point_operator", "self_s"
        ),
        "features.class_stats.self_s": get("features.class_stats", "self_s"),
        "features.select.self_s": get("features.select", "self_s"),
        "features.pca.self_s": get("features.pca", "self_s"),
        "features.compile.calls": get("features.compile", "calls"),
        "features.compile.self_s": get("features.compile", "self_s"),
        "features.compile.builds_per_level": (
            get("features.compile", "calls") / N_LEVELS
        ),
        "ml.fit.self_s": get("ml.fit", "self_s"),
        "core.predict.calls": get("core.predict", "calls"),
        "core.predict.windows": get("core.predict", "work"),
        "core.predict.self_s": get("core.predict", "self_s"),
        "core.disassemble.self_s": get("core.disassemble", "self_s"),
        "experiments.self_s": get(ROOT, "self_s"),
        "unattributed_frac": (
            get(ROOT, "self_s") / root_total if root_total else 0.0
        ),
    }
    return values
