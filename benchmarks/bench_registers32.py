"""Bench: §5.3 at full width — all 32 Rd and all 32 Rr classes.

The main end-to-end bench profiles a register subset for speed; this one
runs the paper's actual 32-class register-identification tasks
(paper: Rd 99.9 %, Rr 99.6 % with QDA at 45 variables).
"""

import numpy as np
from conftest import run_once

from repro.core import SideChannelDisassembler
from repro.experiments import get_scale, register_config
from repro.ml import QDA
from repro.power import Acquisition


def test_full_register_identification(benchmark, bench_scale, save_result):
    scale = get_scale(bench_scale)

    def experiment():
        acq = Acquisition(seed=scale.seed)
        rng = np.random.default_rng(0)
        results = {}
        n_total = scale.n_train_per_class + scale.n_test_per_class
        fraction = scale.n_train_per_class / n_total
        for role in ("Rd", "Rr"):
            full = acq.capture_register_set(
                role, tuple(range(32)), n_total, scale.n_programs
            )
            train, test = full.split_random(fraction, rng)
            dis = SideChannelDisassembler(
                register_config(scale.components(45)), classifier_factory=QDA
            )
            model = dis.fit_register_level(role, train)
            results[role] = model.score(test)
        return results

    results = run_once(benchmark, experiment)
    save_result(
        "registers32",
        "Full 32-register identification (QDA)\n"
        "======================================\n"
        f"Rd: {results['Rd'] * 100:.2f} %   (paper: 99.9 %)\n"
        f"Rr: {results['Rr'] * 100:.2f} %   (paper: 99.6 %)\n",
    )
    assert results["Rd"] >= 0.97  # paper §5.3: Rd 99.9 % (QDA, 45 vars)
    assert results["Rr"] >= 0.96  # paper §5.3: Rr 99.6 % (QDA, 45 vars)
