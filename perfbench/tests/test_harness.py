"""Workloads, output checks and the run harness, on a tiny preset."""

import json

import pytest

import compare
import run
import workloads
from repro.experiments.scales import SMOKE
from tracer import Tracer, layer_metrics
from workloads import PassResult

TINY = SMOKE.with_overrides(**workloads.WARM_UP)


def test_retrain_scores_exactly_as_endtoend():
    retrain = workloads.Retrain(5, TINY)
    assert retrain.setup().levels == workloads.Profile(5, TINY).run_pass().levels


@pytest.mark.parametrize("name", ["profile", "firmware"])
def test_a_traced_pass_gives_the_untraced_srs(name):
    workload = workloads.WORKLOADS[name](3, TINY)
    workload.setup()
    untraced = workload.run_pass()
    traced = run.timed_pass(workload, Tracer())
    assert traced.traced and traced.layers
    assert traced.result.levels == untraced.levels


def test_firmware_executes_its_assembled_stream():
    firmware = workloads.Firmware(4, TINY)
    # The tiny preset trains too little for the SR floor; the stream
    # itself must still match the assembled program exactly.
    assert firmware.setup().problems == ()
    image = firmware.images[0]
    body = workloads.BODY + 3
    assert len(image.trace) == 2 + body * workloads.ITERATIONS - 1


class _Fake:
    """A workload whose output is set by the test."""

    def __init__(self, seed, problems=(), drift=False):
        self.problems, self.drift, self.n = list(problems), drift, 0

    def setup(self):
        return None

    def run_pass(self):
        self.n += 1
        sr = 90.0 + (self.n if self.drift else 0)
        return PassResult(sr, sr, 10, (("opcode", sr),), None, ())

    def check(self, result):
        return list(self.problems)


def _main(monkeypatch, tmp_path, capsys, workload):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", workload)
    monkeypatch.setattr(run, "configure_environment", lambda: None)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "child_setup_s", lambda *args: 1.0)
    code = run.main(
        ["--workload", "fake", "--seed", "0", "--seconds", "0.05"]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_clean_run_reports_every_end_to_end_metric(
    monkeypatch, tmp_path, capsys
):
    code, result = _main(monkeypatch, tmp_path, capsys, _Fake)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_a_pass_failing_its_check_is_counted_and_fails_the_run(
    monkeypatch, tmp_path, capsys
):
    code, result = _main(
        monkeypatch, tmp_path, capsys,
        lambda seed: _Fake(seed, problems=["forced failure"]),
    )
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_srs_that_change_across_passes_fail_the_run(
    monkeypatch, tmp_path, capsys
):
    code, result = _main(
        monkeypatch, tmp_path, capsys, lambda seed: _Fake(seed, drift=True)
    )
    assert code == 1
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1


def test_all_runs_every_workload_and_fails_if_one_fails(monkeypatch, capsys):
    import subprocess

    ran = []

    def fake_run(command, cwd):
        name = command[command.index("--workload") + 1]
        ran.append(name)
        return subprocess.CompletedProcess(command, int(name == "retrain"))

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--workload", "all", "--seed", "1"]) == 1
    assert ran == ["profile", "retrain", "firmware"]
    assert "failed: retrain" in capsys.readouterr().out


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(layer_metrics({})) | {"trace_overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize(
    "group_errors, opcode_pct, n_problems",
    [(0, 100.0, 0), (7, 95.0, 0), (8, 95.0, 1), (0, 80.0, 1), (8, 80.0, 2)],
)
def test_floors_fail_when_the_test_windows_rule_them_out(
    group_errors, opcode_pct, n_problems
):
    # The smoke preset scores groups on 192 windows, the pooled opcode
    # pass on 768 and each register level on 96.
    levels = (
        (workloads.LEVEL_GROUPS, (192 - group_errors) / 192 * 100.0),
        (workloads.LEVEL_OPCODE, opcode_pct),
        ("Rd register", 100.0),
        ("Rr register", 100.0),
        (workloads.LEVEL_COMBINED, opcode_pct),
    )
    result = PassResult(opcode_pct, opcode_pct, 1, levels)
    assert len(workloads.Profile(0).check(result)) == n_problems


def test_compare_refuses_differing_fingerprints_and_gates_bounds(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def result(name, cpu_count=2, wall_s=1.0):
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        metrics["wall_s"]["value"] = wall_s
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "workload": "profile", "trace": 0, "metrics": metrics,
            "fingerprint": {"cpu_count": cpu_count, "git_rev": name},
        }))
        return str(path)

    base = result("base")
    assert compare.main(["--base", base, "--new", result("same")]) == 0
    assert compare.main(
        ["--base", base, "--new", result("other", cpu_count=4)]
    ) == 2
    assert compare.main(["--base", base, "--new", result("slow", wall_s=2.0)]) == 1
