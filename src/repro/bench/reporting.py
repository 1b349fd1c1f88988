"""Plain-text table rendering for experiment output.

Every figure/table regenerator returns rows of Python values; this module
turns them into aligned monospace tables so bench runs read like the paper's
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Ratio:
    """A 0..1 quality value (accuracy/timeliness/pollution).

    Bare floats render as signed overhead percentages (``+3.1``), which is
    wrong for ratios; wrapping a cell in :class:`Ratio` formats it ``0.853``.
    """

    value: float


@dataclass(frozen=True)
class Table:
    """One artifact's table: a title (a ``str.format`` template) and its
    ``(header, key)`` columns over row dicts."""

    title: str
    columns: tuple[tuple[str, str], ...]

    def render(self, rows: Sequence[dict], **title_fields: object) -> str:
        return format_table(
            [header for header, _ in self.columns],
            [[row[key] for _, key in self.columns] for row in rows],
            title=self.title.format(**title_fields),
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as an aligned text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, Ratio):
        return f"{value.value:.3f}"
    if isinstance(value, float):
        return f"{value:+.1f}" if value < 1000 else f"{value:.0f}"
    return str(value)


def format_percent_row(name: str, values: dict[str, float]) -> str:
    """One-line summary, e.g. ``vpr: base=+3.0% ... dyn=-14.5%``."""
    parts = " ".join(f"{k}={v:+.1f}%" for k, v in values.items())
    return f"{name}: {parts}"
