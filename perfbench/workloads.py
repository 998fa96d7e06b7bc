"""The benchmark's workloads, driven through the program's public API.

Each workload is built from a seed, does its set-up once, then runs
measured passes.  A pass returns a :class:`PassResult`; the harness
times it and :meth:`check` lists what is wrong with its output.

* ``profile``: :func:`repro.experiments.endtoend.run` at the smoke
  preset (capture, train and score all 11 levels).
* ``retrain``: set-up captures the same 11 trace sets; a pass refits and
  scores every level exactly as ``endtoend.run`` does.
* ``firmware``: set-up trains a disassembler; a pass captures looping
  firmware images and disassembles them against their ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hierarchy import SideChannelDisassembler
from repro.core.types import ABSTAIN_KEY
from repro.experiments import endtoend
from repro.experiments.configs import (
    CLASSIFIERS,
    register_config,
    stationary_config,
)
from repro.experiments.endtoend import stage_rng
from repro.experiments.robustness import ABSTAIN_THRESHOLD
from repro.experiments.scales import SMOKE, Scale
from repro.experiments.workloads import capture_group_set, group_classes
from repro.isa import REGISTRY, OperandKind
from repro.isa.assembler import Instruction
from repro.power.acquisition import Acquisition, random_instance
from repro.power.dataset import TraceSet

CLASSIFIER = "QDA"

# Output floors from benchmarks/bench_endtoend.py.
#: Paper §5.2: level-1 group SR 99.85-99.93 %.
GROUP_FLOOR_PCT = 99.0
#: Paper §5.3: opcode x Rd x Rr SR >= 99.03 %.
COMBINED_FLOOR_PCT = 88.0
#: The smoke preset scores each level on few windows (192 for groups,
#: 96 for each register level), so a level whose true SR sits at a
#: floor misses the floor's point value by chance on about half of all
#: seeds.  A floor
#: therefore fails only when the test windows rule it out: when the
#: one-sided upper confidence bound of the SR, at this error rate, is
#: below the floor.
FLOOR_ALPHA = 1e-3

#: The profile warm-up: the smoke preset shrunk until it costs a fraction
#: of a pass while running every code path (and filling the operator
#: caches) a pass runs.
WARM_UP = dict(n_train_per_class=12, n_test_per_class=4, n_programs=1)

LEVEL_GROUPS = "groups (level 1)"
LEVEL_OPCODE = "opcode end-to-end"
LEVEL_COMBINED = "combined (opcode x Rd x Rr)"


@dataclass(frozen=True)
class PassResult:
    """What one pass produced.

    Attributes:
        sr_opcode_pct: opcode success rate through the hierarchy
            (canonical matching, as in ``endtoend``).
        sr_combined_pct: opcode x Rd x Rr SR (``profile``/``retrain``);
            share of windows with opcode and registers right
            (``firmware``).
        n_correct: windows whose opcode was recovered correctly.
        levels: every SR the pass produced, as ``(name, percent)``;
            passes of one seed must repeat it exactly.
        abstain_pct: share of windows reported as ``??`` (``firmware``).
        problems: output errors found while the pass ran.
    """

    sr_opcode_pct: float
    sr_combined_pct: float
    n_correct: int
    levels: Tuple[Tuple[str, float], ...]
    abstain_pct: Optional[float] = None
    problems: Tuple[str, ...] = ()


def canonical(key: str) -> str:
    """Canonical class of ``key`` (``endtoend``'s equivalence for scoring)."""
    spec = REGISTRY.get(key)
    if spec is None:
        return key
    return spec.alias_of or spec.key


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 < p < 1."""
    log_p, log_q = math.log(p), math.log1p(-p)
    return sum(
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        for i in range(k + 1)
    )


def sr_upper_bound(sr_pct: float, n: int) -> float:
    """Upper confidence bound (%) of an SR observed over ``n`` windows.

    One-sided Clopper-Pearson at :data:`FLOOR_ALPHA`: the largest true
    SR under which seeing this few successes has probability at least
    ``FLOOR_ALPHA``.
    """
    k = int(round(sr_pct / 100.0 * n))
    if k >= n:
        return 100.0
    low, high = k / n, 1.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if _binomial_cdf(k, n, mid) >= FLOOR_ALPHA:
            low = mid
        else:
            high = mid
    return low * 100.0


def workload_scale(seed: int, base: Scale = SMOKE) -> Scale:
    """``base`` with the workload seed, serial capture."""
    return base.with_overrides(seed=int(seed), n_jobs=1)


class _Hierarchy:
    """Shared output checks for the workloads that score every level."""

    scale: Scale

    def check(self, result: PassResult) -> List[str]:
        problems = list(result.problems)
        levels = dict(result.levels)
        # endtoend's stratified split keeps n_test_per_class per class.
        n_test = self.scale.n_test_per_class
        n_registers = len(self.scale.registers) * n_test
        groups = sr_upper_bound(levels[LEVEL_GROUPS], 8 * n_test)
        combined = (
            sr_upper_bound(levels[LEVEL_OPCODE], self._n_pooled())
            * sr_upper_bound(levels["Rd register"], n_registers)
            * sr_upper_bound(levels["Rr register"], n_registers)
            / 1e4
        )
        if groups < GROUP_FLOOR_PCT:
            problems.append(
                f"group SR {levels[LEVEL_GROUPS]:.3f} % rules out the "
                f"{GROUP_FLOOR_PCT} % floor (upper bound {groups:.3f} %)"
            )
        if combined < COMBINED_FLOOR_PCT:
            problems.append(
                f"combined SR {result.sr_combined_pct:.3f} % rules out the "
                f"{COMBINED_FLOOR_PCT} % floor (upper bound {combined:.3f} %)"
            )
        return problems

    def _n_pooled(self) -> int:
        classes = sum(len(group_classes(g, self.scale)) for g in range(1, 9))
        return classes * self.scale.n_test_per_class


def _result(levels: Sequence[Tuple[str, float]], n_pooled: int) -> PassResult:
    table = dict(levels)
    opcode = table[LEVEL_OPCODE]
    return PassResult(
        sr_opcode_pct=opcode,
        sr_combined_pct=table[LEVEL_COMBINED],
        n_correct=int(round(opcode / 100.0 * n_pooled)),
        levels=tuple(levels),
    )


class Profile(_Hierarchy):
    """``endtoend.run`` at the smoke preset."""

    def __init__(self, seed: int, base: Scale = SMOKE) -> None:
        self.scale = workload_scale(seed, base)

    def setup(self) -> Optional[PassResult]:
        endtoend.run(self.scale.with_overrides(**WARM_UP), CLASSIFIER)
        return None

    def run_pass(self) -> PassResult:
        table = endtoend.run(self.scale, CLASSIFIER)
        levels = [(row["level"], row["SR (%)"]) for row in table.rows]
        return _result(levels, self._n_pooled())


def capture_levels(acq: Acquisition, scale: Scale) -> Dict[str, TraceSet]:
    """The 11 trace sets ``endtoend.run`` captures, keyed by its stage names."""
    n = scale.n_train_per_class + scale.n_test_per_class
    sets = {"groups": capture_group_set(acq, n, scale.n_programs)}
    for group in range(1, 9):
        sets[f"group-{group}"] = acq.capture_instruction_set(
            group_classes(group, scale), n, scale.n_programs
        )
    for role in ("Rd", "Rr"):
        sets[f"register-{role}"] = acq.capture_register_set(
            role, scale.registers, n, scale.n_programs
        )
    return sets


def fit_and_score(
    sets: Dict[str, TraceSet], scale: Scale
) -> Tuple[SideChannelDisassembler, PassResult]:
    """Train and score every level on captured sets, as ``endtoend.run`` does.

    Returns one disassembler holding all three levels (the registers
    trained under their own feature configuration) and the scores.
    """
    factory = CLASSIFIERS[CLASSIFIER]
    fraction = scale.n_train_per_class / (
        scale.n_train_per_class + scale.n_test_per_class
    )

    def split(stage: str):
        return sets[stage].split_random(
            fraction, stage_rng(scale.seed + 52, stage)
        )

    dis = SideChannelDisassembler(
        stationary_config(scale.components(43)), classifier_factory=factory
    )
    levels: List[Tuple[str, float]] = []
    train, test = split("groups")
    levels.append(
        (LEVEL_GROUPS, dis.fit_group_level(train).score(test) * 100.0)
    )
    pooled_traces, pooled_keys = [], []
    for group in range(1, 9):
        train, test = split(f"group-{group}")
        model = dis.fit_instruction_level(group, train)
        levels.append((f"G{group} instructions", model.score(test) * 100.0))
        pooled_traces.append(test.traces)
        pooled_keys.extend(test.label_names[c] for c in test.labels)
    dis.compile()
    predicted = dis.predict_instructions(np.concatenate(pooled_traces))
    opcode = float(
        np.mean(
            [canonical(p) == canonical(t) for p, t in zip(predicted, pooled_keys)]
        )
    )
    levels.append((LEVEL_OPCODE, opcode * 100.0))

    register_dis = SideChannelDisassembler(
        register_config(scale.components(45)), classifier_factory=factory
    )
    register_srs = {}
    for role in ("Rd", "Rr"):
        train, test = split(f"register-{role}")
        register_srs[role] = register_dis.fit_register_level(
            role, train
        ).score(test)
        levels.append((f"{role} register", register_srs[role] * 100.0))
    levels.append(
        (
            LEVEL_COMBINED,
            opcode * register_srs["Rd"] * register_srs["Rr"] * 100.0,
        )
    )
    dis.register_models.update(register_dis.register_models)
    return dis, _result(levels, len(pooled_keys))


class Retrain(_Hierarchy):
    """Refit and score every level on trace sets captured in set-up."""

    def __init__(self, seed: int, base: Scale = SMOKE) -> None:
        self.scale = workload_scale(seed, base)
        self.sets: Dict[str, TraceSet] = {}

    def setup(self) -> Optional[PassResult]:
        acq = Acquisition(seed=self.scale.seed, n_jobs=self.scale.n_jobs)
        self.sets = capture_levels(acq, self.scale)
        return self.run_pass()

    def run_pass(self) -> PassResult:
        return fit_and_score(self.sets, self.scale)[1]


# -- firmware -----------------------------------------------------------------

#: The loop counter; it is one of the profiled registers, so the loop
#: control is scored like every other window.
COUNTER = 16
#: Images per pass, and the shape of each: a random body of BODY
#: instructions run ITERATIONS times (about 10k executed instructions
#: per pass, of which about 500 decode).
N_IMAGES = 4
BODY = 120
ITERATIONS = 20
#: Opcode SR floor for disassembled firmware.  The paper has no figure
#: for real code (§6 leaves it to future work), so this is the loosest
#: floor of benchmarks/bench_endtoend.py; it catches a broken stream
#: (misaligned windows, wrong templates), not a small accuracy change.
FIRMWARE_OPCODE_FLOOR_PCT = COMBINED_FLOOR_PCT

_REG_KINDS = (OperandKind.REG, OperandKind.REG_HIGH)


@dataclass(frozen=True)
class FirmwareImage:
    """A looping program and the stream it must execute.

    ``program`` maps word address to the instruction there; ``trace``
    is the word address of each instruction in execution order.
    """

    words: Tuple[int, ...]
    program: Dict[int, Instruction]
    trace: Tuple[int, ...]


def firmware_classes(scale: Scale) -> List[str]:
    """Classes the firmware draws from: every class level 2 profiles,
    except the G7 skips, since a taken skip turns its successor into a
    bubble cycle that no template models."""
    return [
        key for group in range(1, 9) if group != 7
        for key in group_classes(group, scale)
    ]


def _instance(
    key: str, rng: np.random.Generator, address: int, registers: Sequence[int]
) -> Instruction:
    """A random ``key`` instance whose registers are all in ``registers``."""
    instr = random_instance(key, rng, word_address=address)
    values = list(instr.values)
    used: List[int] = []
    for index, operand in enumerate(instr.spec.operands):
        if operand.kind not in _REG_KINDS:
            continue
        pool = [
            r for r in registers
            if r not in used and (operand.kind is OperandKind.REG or r >= 16)
        ]
        values[index] = int(rng.choice(pool))
        used.append(values[index])
    return Instruction(instr.spec, tuple(values))


def make_firmware(
    rng: np.random.Generator,
    classes: Sequence[str],
    registers: Sequence[int],
    body: int = BODY,
    iterations: int = ITERATIONS,
) -> FirmwareImage:
    """A loop ``iterations`` times over ``body`` random instructions.

    ``registers`` are the profiled ones; the body never names the
    counter, so the loop runs exactly ``iterations`` times::

        sub  r16, r16
        subi r16, -iterations
      loop:
        <body>
        dec  r16
        breq .+2        ; done
        rjmp loop
    """
    free = [r for r in registers if r != COUNTER]
    code: List[Instruction] = [
        Instruction(REGISTRY["SUB"], (COUNTER, COUNTER)),
        Instruction(REGISTRY["SUBI"], (COUNTER, (-iterations) & 0xFF)),
    ]
    loop = 2
    address = loop
    for _ in range(body):
        instr = _instance(str(rng.choice(list(classes))), rng, address, free)
        code.append(instr)
        address += instr.spec.n_words
    code.append(Instruction(REGISTRY["DEC"], (COUNTER,)))
    code.append(Instruction(REGISTRY["BREQ"], (1,)))
    code.append(Instruction(REGISTRY["RJMP"], (loop - (address + 3),)))

    program: Dict[int, Instruction] = {}
    words: List[int] = []
    for instr in code:
        program[len(words)] = instr
        words.extend(instr.encode())
    addresses = sorted(program)
    prologue, body_and_control = addresses[:2], addresses[2:]
    trace = prologue + body_and_control * iterations
    return FirmwareImage(
        words=tuple(words), program=program, trace=tuple(trace[:-1])
    )


def _registers(instr: Instruction) -> List[int]:
    return [
        value for operand, value in zip(instr.spec.operands, instr.values)
        if operand.kind in _REG_KINDS
    ]


class Firmware:
    """Disassemble looping firmware with a disassembler trained in set-up."""

    def __init__(self, seed: int, base: Scale = SMOKE) -> None:
        self.scale = workload_scale(seed, base)
        self.acq: Optional[Acquisition] = None
        self.dis: Optional[SideChannelDisassembler] = None
        self.images: List[FirmwareImage] = []

    def setup(self) -> Optional[PassResult]:
        self.acq = Acquisition(seed=self.scale.seed, n_jobs=self.scale.n_jobs)
        self.dis, _ = fit_and_score(
            capture_levels(self.acq, self.scale), self.scale
        )
        rng = np.random.default_rng([self.scale.seed, 0xF1])
        classes = firmware_classes(self.scale)
        self.images = [
            make_firmware(rng, classes, self.scale.registers)
            for _ in range(N_IMAGES)
        ]
        return self.run_pass()

    def run_pass(self) -> PassResult:
        problems: List[str] = []
        n = opcode_ok = full_ok = abstained = 0
        for number, image in enumerate(self.images):
            # A tuple of words hashes the same in every process, so the
            # capture noise depends on the seed alone.
            capture = self.acq.capture_program(image.words)
            recovered = self.dis.disassemble(
                capture.windows, adapt=False,
                abstain_threshold=ABSTAIN_THRESHOLD,
            )
            executed = tuple(event.pc for event in capture.events)
            if executed != image.trace or any(
                event.opcode_words != image.program[event.pc].encode()
                for event in capture.events
            ):
                problems.append(
                    f"image {number}: executed stream differs from the "
                    "assembled program"
                )
            if len(recovered) != len(image.trace):
                problems.append(
                    f"image {number}: {len(recovered)} instructions "
                    f"recovered from {len(image.trace)} executed"
                )
            for out, pc in zip(recovered, image.trace):
                truth = image.program[pc]
                n += 1
                if out.key == ABSTAIN_KEY:
                    abstained += 1
                    continue
                if canonical(out.key) != canonical(truth.key):
                    continue
                opcode_ok += 1
                regs = _registers(truth)
                if (not regs or out.rd == regs[0]) and (
                    len(regs) < 2 or out.rr == regs[1]
                ):
                    full_ok += 1
        opcode = opcode_ok / n * 100.0
        combined = full_ok / n * 100.0
        abstain = abstained / n * 100.0
        return PassResult(
            sr_opcode_pct=opcode,
            sr_combined_pct=combined,
            n_correct=opcode_ok,
            levels=(
                (LEVEL_OPCODE, opcode),
                ("opcode and registers", combined),
                ("abstained", abstain),
            ),
            abstain_pct=abstain,
            problems=tuple(problems),
        )

    def check(self, result: PassResult) -> List[str]:
        problems = list(result.problems)
        if result.sr_opcode_pct < FIRMWARE_OPCODE_FLOOR_PCT:
            problems.append(
                f"firmware opcode SR {result.sr_opcode_pct:.3f} % is below "
                f"{FIRMWARE_OPCODE_FLOOR_PCT} %"
            )
        return problems


WORKLOADS = {"profile": Profile, "retrain": Retrain, "firmware": Firmware}
