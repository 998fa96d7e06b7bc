"""Performance microbenchmarks of the layers that dominate end-to-end time.

Capture (simulate, render, digitize) and training features (CWT, DNVP
selection, level training) are where an endtoend run spends its time;
classification is a fraction of a percent of it and is timed end to end
by the perfbench ``firmware`` workload instead.  The ``*_reference`` /
``*_serial`` benches time the slow formulations kept as test oracles
(``tests/oracles``), the "before" side of each fast path's speedup.
"""

import numpy as np
import pytest

from repro.core.hierarchy import LevelModel
from repro.dsp import CWT, get_cwt
from repro.features import DnvpSelector, FeatureConfig, WaveletStats
from repro.ml import OneVsOneClassifier, QDA
from repro.power import Acquisition, PowerModel
from repro.sim import AvrCpu
from repro.util.knobs import get_int
from tests.oracles.ovo import ovo_fit_reference
from tests.oracles.render import render_events_serial
from tests.oracles.selection import dnvp_fit_reference


def test_cwt_full_plane_throughput(benchmark):
    """Full 50x315 CWT images per second (profiling-time cost)."""
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = CWT(315)
    images = benchmark(lambda: cwt.transform(traces))
    assert images.shape == (64, 50, 315)


def test_cwt_full_plane_chunked_throughput(benchmark):
    """Full-plane CWT under a tight (1 MiB) chunking budget.

    Chunking never changes results; this guards the cost of running with
    a constrained memory budget against the unconstrained case above.
    """
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = get_cwt(315)
    images = benchmark(lambda: cwt.transform(traces, max_mem_mb=1))
    assert images.shape == (64, 50, 315)


def test_cwt_points_throughput(benchmark):
    """Selected-point evaluation (the per-window classification cost)."""
    rng = np.random.default_rng(0)
    traces = rng.normal(0, 1, (64, 315)).astype(np.float32)
    cwt = get_cwt(315)
    points = [(j, int(k)) for j in (0, 7, 21, 35, 49)
              for k in np.linspace(0, 314, 41)]
    values = benchmark(lambda: cwt.transform_points(traces, points))
    assert values.shape == (64, len(points))


def test_capture_class_serial_throughput(benchmark):
    """End-to-end capture of one class, serial (assemble→sim→render→digitize)."""
    acq = Acquisition(seed=88)
    acq.reference_window()
    windows = benchmark(
        lambda: acq.capture_class("ADC", 64, n_programs=4, n_jobs=1)[0]
    )
    assert windows.shape[0] == 64


def test_capture_class_parallel_throughput(benchmark):
    """Same capture on the worker pool (REPRO_BENCH_JOBS, default 2).

    Output is bit-identical to the serial case; on a single-core host the
    pool only adds overhead, so compare against the serial number above
    with the host's core count in mind.
    """
    n_jobs = get_int("REPRO_BENCH_JOBS")
    acq = Acquisition(seed=88, n_jobs=n_jobs)
    acq.reference_window()
    windows = benchmark(
        lambda: acq.capture_class("ADC", 64, n_programs=4)[0]
    )
    assert windows.shape[0] == 64


# -- template-training stack ------------------------------------------------

TRAIN_KEYS = ["ADD", "ADC", "SUB", "AND", "OR", "EOR", "LDS", "ST_X"]
TRAIN_CONFIG = FeatureConfig(kl_threshold="auto:0.9", n_components=15)


@pytest.fixture(scope="module")
def selector_stats():
    """8 classes x 10 programs of full-plane (50x315) wavelet statistics."""
    rng = np.random.default_rng(0)
    stats = {}
    pids = np.repeat(np.arange(10), 2)
    for code, name in enumerate(TRAIN_KEYS):
        images = rng.normal(0.05 * code, 1.0 + 0.02 * code, (20, 50, 315))
        images += 0.1 * pids[:, None, None] * rng.normal(0, 1, (50, 315))
        stats[name] = WaveletStats.from_images(
            images.astype(np.float32), pids
        )
    return stats


def test_dnvp_selector_fit_throughput(benchmark, selector_stats):
    """Batched DNVP selection: all pair fields from stacked statistics."""
    selector = benchmark(
        lambda: DnvpSelector(kl_threshold="auto:0.6", top_k=5).fit(
            selector_stats
        )
    )
    assert len(selector.points) > 0


def test_dnvp_selector_fit_reference_throughput(benchmark, selector_stats):
    """Serial per-pair selection baseline (identical output)."""
    selector = benchmark(
        lambda: dnvp_fit_reference(
            DnvpSelector(kl_threshold="auto:0.6", top_k=5), selector_stats
        )
    )
    assert len(selector.points) > 0


@pytest.fixture(scope="module")
def train_set():
    """8 instruction classes x 60 program files x 2 traces each."""
    return Acquisition(seed=66).capture_instruction_set(TRAIN_KEYS, 120, 60)


def _train_level(train_set):
    return LevelModel.train(
        train_set, TRAIN_CONFIG, lambda: OneVsOneClassifier(QDA())
    )


def test_level_train_throughput(benchmark, train_set):
    """End-to-end level training on the batched fast path."""
    model = benchmark.pedantic(
        lambda: _train_level(train_set),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert model.pipeline.n_points > 0


def test_level_train_reference_throughput(benchmark, train_set, monkeypatch):
    """Same training through the serial selection and OvO-fit oracles."""
    monkeypatch.setattr(DnvpSelector, "fit", dnvp_fit_reference)
    monkeypatch.setattr(OneVsOneClassifier, "fit", ovo_fit_reference)
    model = benchmark.pedantic(
        lambda: _train_level(train_set),
        rounds=2, iterations=1, warmup_rounds=1,
    )
    assert model.pipeline.n_points > 0


@pytest.fixture(scope="module")
def ovo_problem():
    """12-class Gaussian problem for one-vs-one fitting."""
    rng = np.random.default_rng(3)
    n_classes, n_per, dim = 12, 150, 20
    means = rng.normal(0, 2, (n_classes, dim))
    X = rng.normal(0, 1, (n_classes, n_per, dim)) + means[:, None, :]
    y = np.repeat(np.arange(n_classes), n_per)
    return X.reshape(-1, dim), y


def test_ovo_fit_throughput(benchmark, ovo_problem):
    """Shared-sufficient-statistic one-vs-one fitting (66 QDA pairs)."""
    X, y = ovo_problem
    clf = benchmark(lambda: OneVsOneClassifier(QDA()).fit(X, y))
    assert clf.predict(X[:4]).shape == (4,)


def test_ovo_fit_reference_throughput(benchmark, ovo_problem):
    """Per-pair refitting baseline (identical classifiers)."""
    X, y = ovo_problem
    clf = benchmark(lambda: ovo_fit_reference(OneVsOneClassifier(QDA()), X, y))
    assert clf.predict(X[:4]).shape == (4,)


def test_simulator_throughput(benchmark):
    """Simulated instructions per second (capture-time cost)."""
    program = "\n".join(["add r1, r2", "eor r3, r4", "lds r5, 0x0100"] * 200)

    def run():
        cpu = AvrCpu(program)
        return cpu.run()

    events = benchmark(run)
    assert len(events) == 600


def test_render_throughput(benchmark):
    """Power-trace samples rendered per second (default batched path)."""
    cpu = AvrCpu("\n".join(["add r1, r2"] * 300))
    events = cpu.run()
    model = PowerModel()
    trace = benchmark(lambda: model.render_events(events))
    assert len(trace) > 300 * 157


def test_render_serial_throughput(benchmark):
    """Reference event-at-a-time renderer, for before/after comparison."""
    cpu = AvrCpu("\n".join(["add r1, r2"] * 300))
    events = cpu.run()
    model = PowerModel()
    trace = benchmark(lambda: render_events_serial(model, events))
    assert len(trace) > 300 * 157
