"""Plain-text table renderer for benchmark output."""

from __future__ import annotations

from collections.abc import Sequence


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render dict rows as an aligned ASCII table.

    Missing keys render as empty cells; column order defaults to the union
    of keys in first-seen order.
    """
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) if cells
              else len(col) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
