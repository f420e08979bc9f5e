"""Plain-text table rendering for experiment reports.

The experiment harness prints the same rows the paper's tables report; this
module provides a small, dependency-free table formatter used by every
``repro.experiments`` module and by the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def _render_cell(value: Cell, float_fmt: str) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


@dataclass
class Table:
    """A simple column-aligned table.

    >>> t = Table(title="Demo", columns=["name", "value"])
    >>> t.add_row(["a", 1.5])
    >>> print(format_table(t))  # doctest: +NORMALIZE_WHITESPACE
    Demo
    name | value
    ---- | -----
    a    |  1.50
    """

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    float_fmt: str = ".2f"

    def add_row(self, row: Sequence[Cell]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(list(row))

    def column(self, name: str) -> List[Cell]:
        """Return the values of column ``name`` across all rows."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> List[dict]:
        """Return the rows as a list of ``{column: value}`` dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]


def format_table(table: Table) -> str:
    """Render ``table`` as an aligned plain-text block."""
    rendered_rows = [
        [_render_cell(cell, table.float_fmt) for cell in row] for row in table.rows
    ]
    widths = [len(col) for col in table.columns]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Iterable[str], pad: str = " ") -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i == 0:
                parts.append(cell.ljust(widths[i], pad))
            else:
                parts.append(cell.rjust(widths[i], pad))
        return " | ".join(parts)

    lines = []
    if table.title:
        lines.append(table.title)
    lines.append(fmt_line(table.columns))
    lines.append(" | ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(fmt_line(row))
    return "\n".join(lines)
