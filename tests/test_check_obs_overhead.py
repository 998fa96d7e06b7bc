"""The disabled-mode overhead gate, ``benchmarks/check_obs_overhead.py``.

CI trusts this script to fail when the projected cost of the no-op
span/counter fast path exceeds its budget, so the tests show that it
can fail: on a trace it cannot read a workload from, and on a workload
whose span count no fast path could absorb in the time the run took.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_obs_overhead.py"


@pytest.fixture(scope="module")
def check_obs_overhead():
    spec = importlib.util.spec_from_file_location("check_obs_overhead", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(tmp_path: Path, lines) -> str:
    path = tmp_path / "run.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def _meta(n_spans: int, duration_s: float) -> dict:
    return {
        "type": "meta",
        "format": 1,
        "t0": 0.0,
        "duration_s": duration_s,
        "n_spans": n_spans,
    }


def test_trace_without_meta_fails(check_obs_overhead, tmp_path):
    span = {"type": "span", "path": "a", "name": "a", "wall_ms": 1.0}
    assert check_obs_overhead.main([_trace(tmp_path, [span])]) == 1


def test_overhead_past_budget_fails(check_obs_overhead, tmp_path):
    # 10**8 no-op sites in one second: hundreds of percent on any host.
    path = _trace(tmp_path, [_meta(n_spans=10**8, duration_s=1.0)])
    assert check_obs_overhead.main([path]) == 1


def test_realistic_trace_passes(check_obs_overhead, tmp_path):
    # A smoke endtoend trace holds about 600 spans over 6-10 seconds.
    path = _trace(tmp_path, [_meta(n_spans=600, duration_s=6.0)])
    assert check_obs_overhead.main([path]) == 0
