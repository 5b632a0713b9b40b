"""Report formatting: tables, series tables, ASCII plots.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output consistent and dependency-free.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..units import fmt_size

__all__ = ["format_table", "format_series_table", "ascii_plot", "bench_header"]


def bench_header(bench: str, schema: int, quick: bool) -> dict[str, Any]:
    """The header every ``BENCH_*.json`` record starts with: which bench
    and schema produced it, on what host, and at which commit (``git_sha``
    is None outside a git checkout)."""
    # imported here: ``repro.harness`` is loaded by every run, and the
    # subprocess machinery would cost each of them import time and RSS
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=30,
        )
        sha = proc.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "bench": bench,
        "schema": schema,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "quick": quick,
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render a simple aligned text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(
    x_values: Sequence[int],
    series: Mapping[str, Sequence[float]],
    x_label: str = "Message size (bytes)",
    y_unit: str = "µs",
    title: str = "",
    x_formatter=fmt_size,
) -> str:
    """Render figure-style data: one row per x, one column per series."""
    headers = [x_label] + [f"{name} ({y_unit})" for name in series]
    rows = []
    for i, x in enumerate(x_values):
        row: list[Any] = [x_formatter(x)]
        for name in series:
            row.append(f"{series[name][i]:.1f}")
        rows.append(row)
    return format_table(headers, rows, title=title)


def ascii_plot(
    x_values: Sequence[int],
    series: Mapping[str, Sequence[float]],
    width: int = 72,
    height: int = 18,
    title: str = "",
    logx: bool = True,
) -> str:
    """A rough terminal plot so figure shapes are visible in bench output."""
    import math

    if not x_values or not series:
        return "(no data)"
    marks = "ox+*#@%&"
    all_y = [y for ys in series.values() for y in ys]
    y_max = max(all_y) * 1.05 or 1.0
    xs = [math.log2(x) if logx else float(x) for x in x_values]
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        mark = marks[si % len(marks)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int(y / y_max * (height - 1))
            row = min(max(row, 0), height - 1)
            grid[row][col] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:8.1f} ┐")
    for r, row in enumerate(grid):
        prefix = "         │"
        if r == height - 1:
            prefix = f"{0.0:8.1f} ┘"
        lines.append(prefix + "".join(row))
    lines.append(" " * 10 + f"{fmt_size(x_values[0])}" + " " * (width - 12) + f"{fmt_size(x_values[-1])}")
    legend = "   ".join(f"{marks[i % len(marks)]}={name}" for i, name in enumerate(series))
    lines.append(" " * 10 + legend)
    return "\n".join(lines)
