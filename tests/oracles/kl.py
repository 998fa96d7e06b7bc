"""Per-pair within-class KL loop (oracle for ``within_class_kl``)."""

import numpy as np

from repro.features.kl import WaveletStats, gaussian_kl, symmetric_gaussian_kl


def within_class_kl_reference(
    stats: WaveletStats, symmetric: bool = True
) -> np.ndarray:
    """Worst drift over program pairs, one ``gaussian_kl`` call per pair."""
    n_programs = stats.n_programs
    if n_programs < 2:
        return np.zeros_like(stats.mean)
    fn = symmetric_gaussian_kl if symmetric else gaussian_kl
    worst = np.zeros_like(stats.mean)
    for i in range(n_programs):
        for j in range(i + 1, n_programs):
            field = fn(
                stats.program_means[i],
                stats.program_vars[i],
                stats.program_means[j],
                stats.program_vars[j],
            )
            np.maximum(worst, field, out=worst)
    return worst
