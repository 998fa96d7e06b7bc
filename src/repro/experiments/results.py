"""Result containers that render the paper's tables and series."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from ..util.io import atomic_write_json

__all__ = ["ResultTable"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class ResultTable:
    """A reproduced table/figure: rows plus the paper's reference values.

    Attributes:
        title: e.g. ``"Table 3: SR of ADC vs AND with CSA"``.
        columns: column names, first column is the row label.
        rows: list of dicts keyed by column name.
        paper_reference: the values the paper reports, for side-by-side
            EXPERIMENTS.md entries.
        notes: free-form caveats (scale used, substitutions).
        meta: machine-readable run annotations, saved and loaded with
            the table; empty unless the caller sets some.
    """

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    paper_reference: Mapping[str, object] = field(default_factory=dict)
    notes: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **cells) -> None:
        """Append one row (keyword per column)."""
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"row has unknown columns {sorted(unknown)}")
        self.rows.append(cells)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        """Monospace table, paper reference and notes included."""
        widths = {
            c: max(len(c), *(len(_format_cell(r.get(c, ""))) for r in self.rows))
            if self.rows
            else len(c)
            for c in self.columns
        }
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _format_cell(row.get(c, "")).ljust(widths[c])
                    for c in self.columns
                )
            )
        if self.paper_reference:
            lines.append("")
            lines.append("paper reports: " + ", ".join(
                f"{k}={v}" for k, v in self.paper_reference.items()
            ))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        payload: Dict[str, object] = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "paper_reference": dict(self.paper_reference),
            "notes": self.notes,
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ResultTable":
        """Rebuild a table serialized with :meth:`to_dict`."""
        return cls(
            title=str(payload["title"]),
            columns=list(payload["columns"]),  # type: ignore[arg-type]
            rows=[dict(r) for r in payload.get("rows", ())],  # type: ignore[union-attr]
            paper_reference=dict(payload.get("paper_reference", {})),  # type: ignore[arg-type]
            notes=str(payload.get("notes", "")),
            meta=dict(payload.get("meta", {})),  # type: ignore[arg-type]
        )

    def save(self, path) -> None:
        """Persist to JSON atomically (crash leaves old file intact)."""
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ResultTable":
        """Load a table saved with :meth:`save`."""
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
