"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's figures
report; these helpers keep that output aligned and greppable.
"""

from __future__ import annotations

import typing as t

Row = t.Sequence[t.Any]


def format_table(headers: t.Sequence[str], rows: t.Iterable[Row],
                 title: t.Optional[str] = None) -> str:
    """Fixed-width table with a rule under the header."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: t.Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(headers))
    lines.append(render_row(["-" * w for w in widths]))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)
