"""File walk + two-phase whole-program rule execution for replint.

Every run is cold and reports every finding in the tree, so the
findings are a pure function of the files.

Phase 1 (per-file, parallel): every file is parsed once; each rule's
``check_file`` findings and ``collect`` facts are captured, plus the
file's :class:`~repro.analysis.project.ModuleInfo` slice of the project
model.  The work fans out over
:func:`repro.util.parallel.parallel_map`, whose input-ordered results
make the findings identical for any worker count.

Phase 2 (whole-program, serial): the collected ``ModuleInfo`` slices
are assembled into a :class:`~repro.analysis.project.ProjectModel`
(import graph, symbol tables, call/def index) and every rule's
``finalize`` and ``check_project`` hooks run against it.  Cross-module
findings are subject to the owning file's inline suppressions, exactly
like per-file ones.

Last, every ``# replint: disable`` comment that silenced nothing across
*all* phases is itself reported (REP013).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..util.parallel import parallel_map
from .core import PARSE_ERROR_CODE, Finding, Suppressions
from .project import ModuleInfo, ProjectModel
from .rules import all_rules
from .rules.suppressions import UNUSED_SUPPRESSION_CODE

__all__ = ["ScanResult", "iter_python_files", "run"]

#: Directories never walked for lintable files: caches, VCS internals,
#: and build output.  Kept explicit so a stray ``build/lib/...`` copy
#: can never shadow real findings.
_EXCLUDED_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".pytest_cache",
        ".mypy_cache",
        ".ruff_cache",
        "build",
        "dist",
    }
)


@dataclass
class _FileScan:
    """Picklable per-file scan output (worker -> parent).  ``findings``
    are *raw* — inline suppressions are applied in the parent so
    suppression usage can be accounted across every phase."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)
    module_info: Optional[ModuleInfo] = None
    suppress_lines: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    suppress_file: FrozenSet[str] = frozenset()


@dataclass
class ScanResult:
    """Everything one replint run produced."""

    findings: List[Finding]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a deterministic sorted list of
    ``.py`` files.

    Cache (``__pycache__``, tool caches), VCS, and build directories
    are pruned; the result is sorted after normalization so the order
    never depends on filesystem enumeration order.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _EXCLUDED_DIRS)
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    return sorted(set(f.replace("\\", "/") for f in files))


def _scan_one(path: str) -> _FileScan:
    """Parse one file and run every per-file hook (worker side)."""
    from .core import FileContext  # local import keeps the worker light
    from .project import collect_module_info

    result = _FileScan(path=path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as exc:
        lineno = getattr(exc, "lineno", 1) or 1
        result.findings.append(
            Finding(
                path=path,
                line=lineno,
                col=1,
                code=PARSE_ERROR_CODE,
                message=f"cannot parse file: {exc}",
            )
        )
        return result
    ctx = FileContext(path, source, tree)
    result.suppress_lines = dict(ctx.suppressions.by_line)
    result.suppress_file = ctx.suppressions.file_wide
    result.module_info = collect_module_info(ctx)
    for rule in all_rules():
        result.findings.extend(rule.check_file(ctx))
        fact = rule.collect(ctx)
        if fact is not None:
            result.facts[rule.code] = fact
    return result


class _SuppressionLedger:
    """Suppression state for every file plus usage accounting.

    A suppression is *used* when it silences at least one finding in any
    phase; what remains unused at the end becomes REP013 findings.
    """

    def __init__(self) -> None:
        self._suppressions: Dict[str, Suppressions] = {}
        self._used_lines: Dict[str, Set[int]] = {}
        self._used_file: Dict[str, Set[str]] = {}

    def add_file(self, scan: _FileScan) -> None:
        self._suppressions[scan.path] = Suppressions(
            by_line=dict(scan.suppress_lines),
            file_wide=scan.suppress_file,
        )
        self._used_lines[scan.path] = set()
        self._used_file[scan.path] = set()

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """Drop suppressed findings, recording which comments fired."""
        kept: List[Finding] = []
        for finding in findings:
            sup = self._suppressions.get(finding.path)
            if sup is None or not sup.is_suppressed(finding):
                kept.append(finding)
                continue
            if finding.code in sup.file_wide:
                self._used_file[finding.path].add(finding.code)
            if finding.line in sup.by_line:
                codes = sup.by_line[finding.line]
                if codes is None or finding.code in codes:
                    self._used_lines[finding.path].add(finding.line)
        return kept

    def unused(self) -> List[Finding]:
        """REP013 findings for every suppression that fired nothing.

        A suppression naming REP013 itself is an explicit opt-out and is
        never reported (see :mod:`.rules.suppressions`).
        """
        findings: List[Finding] = []
        for path in sorted(self._suppressions):
            sup = self._suppressions[path]
            used_lines = self._used_lines[path]
            used_codes = self._used_file[path]
            for line in sorted(sup.by_line):
                if line in used_lines:
                    continue
                codes = sup.by_line[line]
                if codes is not None and UNUSED_SUPPRESSION_CODE in codes:
                    continue
                label = (
                    "disable=" + ",".join(sorted(codes))
                    if codes is not None
                    else "disable"
                )
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=1,
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"unused suppression '# replint: {label}': no "
                            "such finding fires on this line; remove the "
                            "stale waiver"
                        ),
                    )
                )
            for code in sorted(sup.file_wide - used_codes):
                if code == UNUSED_SUPPRESSION_CODE:
                    continue
                findings.append(
                    Finding(
                        path=path,
                        line=1,
                        col=1,
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"unused suppression '# replint: disable-file="
                            f"{code}': the rule never fires in this file; "
                            "remove the stale waiver"
                        ),
                    )
                )
        return findings


def run(paths: Sequence[str], n_jobs: Optional[int] = None) -> ScanResult:
    """Lint ``paths`` cold and return every finding, sorted.

    Args:
        paths: files or directories to lint.
        n_jobs: phase-1 worker processes (``None`` → ``REPRO_N_JOBS``).
            The findings are identical for any value.
    """
    files = iter_python_files(paths)

    # ---- phase 1: per-file scans -------------------------------------------
    scans = parallel_map(
        _scan_one, files, n_jobs=n_jobs, min_items_per_worker=16
    )

    # ---- suppression filtering + fact/model assembly -----------------------
    ledger = _SuppressionLedger()
    findings: List[Finding] = []
    facts_by_rule: Dict[str, List[Tuple[str, object]]] = {}
    infos: List[ModuleInfo] = []
    for scan in scans:
        ledger.add_file(scan)
        findings.extend(ledger.filter(scan.findings))
        if scan.module_info is not None:
            infos.append(scan.module_info)
        for code in sorted(scan.facts):
            facts_by_rule.setdefault(code, []).append(
                (scan.path, scan.facts[code])
            )

    # ---- phase 2: whole-program rules --------------------------------------
    project = ProjectModel(infos)
    for rule in all_rules():
        findings.extend(ledger.filter(rule.finalize(facts_by_rule.get(rule.code, []))))
        findings.extend(ledger.filter(rule.check_project(project)))

    findings.extend(ledger.unused())
    return ScanResult(findings=sorted(findings), n_files=len(files))
