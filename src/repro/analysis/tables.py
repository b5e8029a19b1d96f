"""Plain-text tables for experiment output."""

from __future__ import annotations

from typing import Any, List, Sequence


def format_value(value: Any) -> str:
    """Render a cell: floats get sensible precision, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


class Table:
    """A titled table with named columns, rendered as aligned text."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any, **named: Any) -> None:
        """Add a row either positionally or by column name."""
        if values and named:
            raise ValueError("pass either positional values or named values, not both")
        if named:
            values = tuple(named.get(column, "") for column in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append([format_value(value) for value in values])

    def sort_by(self, column: str, reverse: bool = False, numeric: bool = True) -> None:
        """Sort rows by a column (best effort numeric parsing)."""
        index = self.columns.index(column)

        def key(row: List[str]):
            if numeric:
                try:
                    return float(row[index].replace(",", ""))
                except ValueError:
                    return float("inf")
            return row[index]

        self.rows.sort(key=key, reverse=reverse)

    def render(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        separator = "-+-".join("-" * width for width in widths)
        header = " | ".join(column.ljust(width) for column, width in zip(self.columns, widths))
        lines = [self.title, "=" * len(self.title), header, separator]
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
