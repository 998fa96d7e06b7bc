"""The ``--check`` gate of ``benchmarks/export_throughput.py``.

The gate must fail when a benchmark it gates is missing from the run:
otherwise renaming or deselecting a gated benchmark passes silently.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "export_throughput.py"


@pytest.fixture(scope="module")
def export_throughput():
    spec = importlib.util.spec_from_file_location("export_throughput", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _raw_run(module) -> dict:
    """A pytest-benchmark document in which every gated benchmark passes."""
    means_ms = {
        name: seed / 2 for name, seed in module.SEED_BASELINE_MS.items()
    }
    means_ms["test_dnvp_selector_fit_throughput"] = 5.0
    return {
        "machine_info": {"cpu": {"brand_raw": "synthetic"}},
        "benchmarks": [
            {"name": name, "stats": {"mean": ms / 1e3, "min": ms / 1e3}}
            for name, ms in means_ms.items()
        ],
    }


def _export(module, tmp_path: Path, raw: dict) -> dict:
    raw_path = tmp_path / "raw.json"
    raw_path.write_text(json.dumps(raw))
    return module.export(str(raw_path), output=tmp_path / "BENCH.json")


def test_complete_run_passes(export_throughput, tmp_path):
    raw = _raw_run(export_throughput)
    document = _export(export_throughput, tmp_path, raw)
    assert export_throughput.check(document) == []


def test_only_frozen_benchmarks_get_a_seed_baseline(
    export_throughput, tmp_path
):
    raw = _raw_run(export_throughput)
    rows = _export(export_throughput, tmp_path, raw)["benchmarks"]
    seeded = {name for name, row in rows.items() if "seed_mean_ms" in row}
    assert seeded == set(export_throughput.SEED_BASELINE_MS)
    assert rows["test_simulator_throughput"]["speedup_vs_seed"] == 2.0
    assert "speedup_vs_seed" not in rows["test_dnvp_selector_fit_throughput"]
    assert all("seed_source" not in row for row in rows.values())


@pytest.mark.parametrize(
    "dropped",
    ["test_simulator_throughput", "test_capture_class_parallel_throughput"],
)
def test_missing_gated_benchmark_fails(export_throughput, tmp_path, dropped):
    raw = _raw_run(export_throughput)
    raw["benchmarks"] = [
        b for b in raw["benchmarks"] if b["name"] != dropped
    ]
    document = _export(export_throughput, tmp_path, raw)
    assert export_throughput.check(document) == [
        f"{dropped}: gated benchmark missing from the run"
    ]
