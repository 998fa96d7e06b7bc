"""REP002 — every test oracle is exercised by a test module.

Each production path has exactly one implementation in ``src``; the
slow, obviously correct formulations it replaced live in the test-only
``tests/oracles`` package (DESIGN.md §9).  An oracle nobody calls has
silently stopped checking anything, so every public function defined in
``tests/oracles/`` must be referenced by at least one
``tests/**/test_*.py`` module.

Mechanics: each oracle file contributes its top-level public function
definitions; each test module contributes the set of identifiers it
mentions.  An oracle passes when some test module mentions its name.
Private helpers (``_x``) are exempt — the public oracle that uses them
covers them — and mentions in non-test files (other oracles, benchmarks,
conftest) do not count.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from ..core import FileContext, Finding, Rule, register_rule

__all__ = ["ParityRule"]


def _is_oracle(ctx: FileContext) -> bool:
    """True for modules of a ``tests/oracles`` package."""
    parts = ctx.path.split("/")
    return any(
        parts[i] == "tests" and parts[i + 1] == "oracles"
        for i in range(len(parts) - 2)
    )


def _is_test_module(ctx: FileContext) -> bool:
    """True for ``test_*.py`` modules under a ``tests`` directory."""
    parts = ctx.path.split("/")
    return "tests" in parts[:-1] and parts[-1].startswith("test_")


@register_rule
class ParityRule(Rule):
    code = "REP002"
    name = "parity"
    description = (
        "every public function in tests/oracles/ is referenced by some "
        "tests/**/test_*.py module"
    )

    def collect(self, ctx: FileContext) -> Optional[object]:
        if _is_oracle(ctx):
            oracles: List[Tuple[int, int, str]] = [
                (node.lineno, node.col_offset + 1, node.name)
                for node in ctx.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
            ]
            return ("oracle", oracles) if oracles else None
        if not _is_test_module(ctx):
            return None
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                # getattr(oracles, "fit_reference") style references count.
                names.add(node.value)
        return ("test", sorted(names))

    def finalize(
        self, facts: Sequence[Tuple[str, object]]
    ) -> List[Finding]:
        referenced: Set[str] = set()
        oracles: List[Tuple[str, Tuple[int, int, str]]] = []
        for path, fact in facts:
            kind, payload = fact  # type: ignore[misc]
            if kind == "test":
                referenced.update(payload)
            else:
                oracles.extend((path, oracle) for oracle in payload)
        return [
            Finding(
                path=path,
                line=line,
                col=col,
                code=self.code,
                message=(
                    f"test oracle {name!r} is not referenced by any "
                    "tests/**/test_*.py module; add a parity test or "
                    "delete the oracle"
                ),
            )
            for path, (line, col, name) in oracles
            if name not in referenced
        ]
