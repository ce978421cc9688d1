"""Plain-text rendering of experiment tables.

The experiment drivers return structured rows; :func:`render_table`
formats them the way the benchmark harness and the CLI print them —
fixed-width ASCII tables that mirror the paper's tables.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    notes: Sequence[str] = (),
) -> str:
    """Render rows (dicts keyed by column name) as an ASCII table."""
    def fmt(v: object) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.1f}" if abs(v) >= 0.1 else f"{v:.3g}"
        return str(v)

    cells = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    sep = "+".join("-" * (w + 2) for w in widths)
    out = [title, sep]
    out.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    out.append(sep)
    for n in notes:
        out.append(f"  note: {n}")
    return "\n".join(out)
