"""Event-at-a-time power rendering (oracle for ``PowerModel.render_events``).

The production renderer expresses every cycle as a coefficient row
against a fixed waveform basis and renders all cycles with one matmul.
This is the formulation it replaced: each cycle's execute and fetch
activity accumulated waveform by waveform.  Both sum the same terms, so
they agree up to floating-point summation order (~1e-15 relative).
"""

from typing import Sequence, Tuple

import numpy as np

from repro.power.model import (
    PowerModel,
    _BIT_SEMANTICS,
    _SKIP_SEMANTICS,
    _popcount,
    _register_operands,
)
from repro.sim.cpu import canonicalize
from repro.sim.events import ExecEvent


def render_events_serial(
    model: PowerModel, events: Sequence[ExecEvent]
) -> np.ndarray:
    """Render ``events`` one cycle at a time."""
    spc = model._spc
    n = len(events)
    trace = np.zeros((n + 2) * spc)
    # Pad cycles carry clock feedthrough only.
    trace[0:spc] += model._clock
    trace[(n + 1) * spc:] += model._clock
    for i, event in enumerate(events):
        cycle = model._clock.copy()
        cycle += _execute_activity(model, event)
        if i + 1 < n:
            cycle += _fetch_activity(
                model, events[i + 1].opcode_words, event.opcode_words
            )
        start = (i + 1) * spc
        trace[start:start + spc] += cycle
    # First pad cycle also fetches instruction 0.
    if n:
        trace[0:spc] += _fetch_activity(model, events[0].opcode_words, ())
    return model.device.gain * trace + model.device.offset


def _fetch_activity(
    model: PowerModel, words: Tuple[int, ...], prev_words: Tuple[int, ...]
) -> np.ndarray:
    """Fetch + decode activity for the instruction entering the pipe."""
    out = np.zeros(model._spc)
    if not words:
        return out
    word = words[0]
    out += model.config.flash_hw_scale * _popcount(word) * model._env_fetch_hw
    if prev_words:
        transitions = _popcount(word ^ prev_words[-1])
        out += model.config.flash_hd_scale * transitions * model._env_fetch_hd
    bits = (word >> np.arange(16)) & 1
    out += bits @ model._decode_bank
    return out


def _port_activity(model: PowerModel, port: str, reg: int) -> np.ndarray:
    row, col = reg % 8, reg // 8
    out = model._port_row_banks[port][row] + model._port_col_banks[port][col]
    out = out + _popcount(reg) * model._port_hw_env[port]
    return out


def _execute_activity(model: PowerModel, event: ExecEvent) -> np.ndarray:
    cfg = model.config
    out = np.zeros(model._spc)
    if event.skipped:
        # Pipeline bubble: flush residue only.
        out += 0.30 * model._components["skip"]
        return out

    canonical = canonicalize(event.instruction)
    semantics = canonical.spec.semantics

    # Register-file address decode: the AVR register file decodes the
    # opcode's d/r fields on both read ports every cycle, regardless
    # of whether the operation consumes the data — so port activity
    # is keyed on operand *addresses*, not on semantic reads.
    port_regs = _register_operands(canonical)
    if port_regs:
        out += _port_activity(model, "read_a", port_regs[0])
    if len(port_regs) > 1:
        out += _port_activity(model, "read_b", port_regs[1])
    if event.reads:
        out += model._components["regfile_read"]
        for read in event.reads[:2]:
            out += cfg.data_hw_scale * _popcount(read.value) * model._env_op_a
    if event.writes:
        out += model._components["regfile_write"]
        write = event.writes[0]
        out += _port_activity(model, "write", write.reg)
        out += (
            cfg.data_hd_scale
            * _popcount(write.old ^ write.new)
            * model._env_result
        )
    if event.alu_result is not None or event.alu_operands:
        out += model._components["alu"]
        out += model._aluop_signature(semantics)
        for env, value in zip(
            (model._env_op_a, model._env_op_b), event.alu_operands
        ):
            out += cfg.data_hw_scale * _popcount(value) * env
        if event.alu_result is not None:
            out += (
                cfg.data_hw_scale
                * _popcount(event.alu_result)
                * model._env_result
            )
    for access in event.mem:
        if access.kind == "load":
            out += model._components["mem_load"]
        elif access.kind == "store":
            out += model._components["mem_store"]
        elif access.kind == "io":
            out += model._components["io"]
        elif access.kind == "flash":
            out += model._components["flash_data"]
        out += (
            cfg.data_hw_scale
            * _popcount(access.address & 0xFF)
            * model._env_mem_addr
        )
        out += (
            cfg.data_hw_scale * _popcount(access.value) * model._env_mem_data
        )
    if event.branch_taken is not None:
        if semantics in _SKIP_SEMANTICS:
            amp = 1.0 if event.branch_taken else 0.55
            out += amp * model._components["skip"]
        else:
            amp = 1.0 if event.branch_taken else 0.45
            out += amp * model._components["branch"]
    if semantics in _BIT_SEMANTICS:
        out += model._components["bit_unit"]
    toggled = event.sreg_toggled
    if toggled:
        bits = (toggled >> np.arange(8)) & 1
        out += bits @ model._sreg_bank
    if len(event.opcode_words) > 1:
        # Second word of a 32-bit instruction is fetched while executing.
        out += (
            cfg.flash_hw_scale
            * _popcount(event.opcode_words[1])
            * model._env_word2
        )
    # Control-path residues keyed on the *textual* class and its
    # Table 2 group, not the canonical encoding.  Physically,
    # ``TST r5`` and ``AND r5, r5`` share one opcode, but the paper's
    # near-perfect separation of groups containing aliases implies its
    # templates treat every profiled class as having a distinct
    # signature; we model that explicitly (see DESIGN.md §2).
    out += model._class_bias(event.instruction.spec.key)
    group = event.instruction.spec.group
    if group is not None:
        out += model._group_bias(group)
    return out
