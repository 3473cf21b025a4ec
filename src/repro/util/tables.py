"""Plain-text table and series rendering for the experiment harness.

The paper reports figures; we regenerate the underlying series and render them
as aligned ASCII tables plus a rough inline plot so results are readable in a
terminal and diffable in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any


class Table:
    """An aligned plain-text table.

    >>> t = Table(["threads", "time"])
    >>> t.add_row([1, 10.0])
    >>> t.add_row([2, 5.5])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    threads | time
    --------+-----
          1 | 10.0
          2 | 5.5
    """

    def __init__(self, columns: Sequence[str], *, float_fmt: str = "{:.4g}") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.float_fmt = float_fmt
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[Any]) -> None:
        cells = [self._fmt(v) for v in values]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(cells)

    def _fmt(self, v: Any) -> str:
        if isinstance(v, float):
            return self.float_fmt.format(v)
        return str(v)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows), 1)
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in self.rows:
            lines.append(
                " | ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def ascii_plot(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 60,
    height: int = 16,
    title: str = "",
) -> str:
    """Render multiple (x, y) series as a crude ASCII scatter plot.

    Each series gets a single marker character. Intended for quick visual
    confirmation of curve shapes (who wins, where the knee is), not precision.
    """
    markers = "ox+*#@%&"
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    if not all_x:
        return "(empty plot)"
    xmin, xmax = min(all_x), max(all_x)
    ymin, ymax = min(all_y), max(all_y)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    grid = [[" "] * width for _ in range(height)]
    legend = []
    for (name, (xs, ys)), marker in zip(series.items(), markers):
        legend.append(f"{marker}={name}")
        for x, y in zip(xs, ys):
            col = int((x - xmin) / xspan * (width - 1))
            row = height - 1 - int((y - ymin) / yspan * (height - 1))
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y in [{ymin:.4g}, {ymax:.4g}]")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" x in [{xmin:g}, {xmax:g}]   " + "  ".join(legend))
    return "\n".join(lines)
