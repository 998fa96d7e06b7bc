"""Serial DNVP selection (oracle for ``DnvpSelector.fit``)."""

import itertools
from typing import Mapping

from repro.features.kl import WaveletStats
from repro.features.selection import DnvpSelector, select_pair_points

from .kl import within_class_kl_reference


def dnvp_fit_reference(
    selector: DnvpSelector, stats_by_class: Mapping[str, WaveletStats]
) -> DnvpSelector:
    """Fit ``selector`` with a per-pair Python loop and loop-based KL fields."""
    names = list(stats_by_class)
    within = {
        name: within_class_kl_reference(stats_by_class[name])
        for name in names
    }
    selections = [
        select_pair_points(
            stats_by_class[name_a],
            stats_by_class[name_b],
            kl_threshold=selector.kl_threshold,
            top_k=selector.top_k,
            class_a=name_a,
            class_b=name_b,
            within_a=within[name_a],
            within_b=within[name_b],
        )
        for name_a, name_b in itertools.combinations(names, 2)
    ]
    return selector._finalize(selections)
