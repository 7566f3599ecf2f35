"""Plain-text reporting: ASCII tables and paper-vs-measured blocks.

The benchmark harness prints the same rows/series the paper's figures
plot, so a reader can compare shapes directly from the terminal
output.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = ["ascii_table", "format_rows", "banner"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def ascii_table(
    headers: Sequence[str], rows: Iterable[Sequence]
) -> str:
    """Render rows as a boxed, right-padded ASCII table."""
    materialized = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return (
            "| "
            + " | ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(cells)
            )
            + " |"
        )

    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = [rule, line(list(headers)), rule]
    out.extend(line(row) for row in materialized)
    out.append(rule)
    return "\n".join(out)


def format_rows(
    rows: Iterable[Mapping], columns: Sequence[str]
) -> str:
    """Render mapping rows as a table over the chosen columns."""
    return ascii_table(
        columns, [[row.get(col, "") for col in columns] for row in rows]
    )


def banner(title: str) -> str:
    """A section banner used by every benchmark's output."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"

