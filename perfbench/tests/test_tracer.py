"""The tracer wraps and restores entry points and attributes time correctly."""

import sys
import time
import types

import pytest

from tracer import ROOT, TARGETS, Target, Tracer, layer_metrics

SLEEP_S = 0.2
#: Self time the non-sleeping spans may show: wrapper and call overhead.
SLACK_S = 0.05

FAKE_SOURCE = """
import time

def slow():
    time.sleep(SLEEP_S)

def fast():
    return 1

def outer():
    fast()
    slow()
    fast()
"""


@pytest.fixture
def fake_layers(monkeypatch):
    module = types.ModuleType("fake_layers")
    module.SLEEP_S = SLEEP_S
    exec(FAKE_SOURCE, module.__dict__)
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_install_and_uninstall_restore_every_original():
    originals = [
        (target.resolve(), target.attribute,
         target.resolve().__dict__[target.attribute])
        for target in TARGETS
    ]
    with Tracer():
        for owner, attribute, original in originals:
            assert owner.__dict__[attribute] is not original, attribute
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, attribute


def test_uninstall_restores_after_an_exception():
    from repro.sim import cpu

    original = cpu.__dict__["decode_one"]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert cpu.decode_one is original


def test_a_sleeping_layer_shows_only_in_its_own_self_time(fake_layers):
    # "features.pca" stands in for any layer: the sleep must land in its
    # self time and in no other span, the parents and the root included.
    tracer = Tracer((
        Target("fake_layers", "outer", "core.disassemble"),
        Target("fake_layers", "slow", "features.pca"),
        Target("fake_layers", "fast", "ml.fit"),
    ))
    started = time.perf_counter()
    with tracer, tracer.span(ROOT):
        fake_layers.outer()
    wall = time.perf_counter() - started
    metrics = layer_metrics(tracer.totals())

    assert metrics["features.pca.self_s"] >= SLEEP_S
    others = {
        name: value for name, value in metrics.items()
        if name.endswith("self_s") and name != "features.pca.self_s"
    }
    assert all(value < SLACK_S for value in others.values()), others
    total = sum(others.values()) + metrics["features.pca.self_s"]
    assert total == pytest.approx(tracer.totals()[ROOT]["total_s"])
    assert total <= wall
    assert metrics["unattributed_frac"] < SLACK_S / SLEEP_S


def test_nested_spans_of_one_name_count_self_time_once(fake_layers):
    tracer = Tracer((
        Target("fake_layers", "outer", "power.capture"),
        Target("fake_layers", "slow", "power.capture"),
    ))
    with tracer:
        fake_layers.outer()
    totals = tracer.totals()["power.capture"]
    assert totals["calls"] == 2
    assert totals["total_s"] > totals["self_s"] >= SLEEP_S
    assert totals["self_s"] < SLEEP_S + SLACK_S


def test_spans_are_written_one_per_line(fake_layers, tmp_path):
    tracer = Tracer((Target("fake_layers", "fast", "ml.fit"),))
    with tracer, tracer.span(ROOT):
        fake_layers.fast()
        fake_layers.fast()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines] == [
        '["experiments"', '["ml.fit"', '["ml.fit"'
    ]
