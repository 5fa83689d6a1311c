"""Shared experiment plumbing: trial statistics and result tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.views import render_table


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and standard deviation (0.0 for a single value)."""
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 100:
            return f"{value:.0f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Plain aligned-columns rendering for terminal output."""
    return render_table(headers, [[format_cell(v) for v in row] for row in rows])


@dataclass
class FigureResult:
    """One reproduced figure or table.

    ``rows`` is a list of dicts sharing the keys in ``columns``; the
    shape claims the reproduction makes about this experiment live in
    ``notes`` and are asserted by the benchmark wrappers.
    """

    figure_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    scale_note: str = ""

    def add(self, **cells: Any) -> None:
        unknown = set(cells) - set(self.columns)
        if unknown:
            raise KeyError(f"row has columns not declared: {sorted(unknown)}")
        self.rows.append(cells)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_where(self, column: str, value: Any) -> Dict[str, Any]:
        for row in self.rows:
            if row.get(column) == value:
                return row
        raise KeyError(f"no row with {column}={value!r}")

    def render(self) -> str:
        body = format_table(
            self.columns, [[row.get(c, "") for c in self.columns] for row in self.rows]
        )
        parts = [f"== {self.figure_id}: {self.title} =="]
        if self.scale_note:
            parts.append(f"(scale: {self.scale_note})")
        parts.append(body)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
