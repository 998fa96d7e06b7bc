"""Row-at-a-time hierarchical inference (oracle for ``predict_instructions``)."""

from typing import List, Optional

import numpy as np

from repro.core.hierarchy import SideChannelDisassembler


def predict_instructions_reference(
    dis: SideChannelDisassembler,
    windows: np.ndarray,
    groups: Optional[np.ndarray] = None,
    adapt: Optional[bool] = None,
) -> List[str]:
    """Route every window through its group's level as a batch of one.

    The naive streaming-disassembler loop.  A batch of one never adapts,
    so parity with the batched path holds under ``adapt=False`` or
    non-batch normalization.
    """
    windows = np.asarray(windows)
    if groups is None:
        groups = dis.predict_groups(windows, adapt=adapt)
    keys: List[str] = []
    for row in range(len(windows)):
        model = dis.instruction_models.get(int(groups[row]))
        if model is None:
            keys.append(f"G{int(groups[row])}?")
            continue
        keys.append(model.predict_keys(windows[row:row + 1], adapt=adapt)[0])
    return keys
