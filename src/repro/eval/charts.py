"""Terminal charts: small line charts for accuracy curves.

The benchmarks and the CLI print accuracy-per-round series; a picture of
the curve (is it climbing? bouncing? collapsed?) is faster to read than a
row of percentages, so the reporting helpers attach these.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["line_chart"]

_MARKERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def line_chart(series: Mapping[str, Sequence[float]], *, height: int = 8,
               col_width: int = 6, lo: float = 0.0,
               hi: float = 1.0) -> str:
    """Multi-series character chart with a y-axis and legend.

    Each series is assigned a letter marker; colliding points print
    ``*``.  Suited to the 5-point accuracy curves of the protocol.
    """
    if not series:
        return "(no data)"
    if height < 2:
        raise ConfigurationError("height must be >= 2")
    if hi <= lo:
        raise ConfigurationError(f"need hi > lo, got [{lo}, {hi}]")
    n_cols = max(len(v) for v in series.values())
    markers = {label: _MARKERS[i % len(_MARKERS)]
               for i, label in enumerate(series)}

    def row_of(value: float) -> int:
        clamped = min(max(value, lo), hi)
        return min(int((clamped - lo) / (hi - lo) * height),
                   height - 1)

    grid = [[" "] * n_cols for _ in range(height)]
    for label, values in series.items():
        for col, value in enumerate(values):
            row = row_of(value)
            cell = grid[row][col]
            grid[row][col] = markers[label] if cell == " " else "*"

    lines = []
    for row in range(height - 1, -1, -1):
        level = lo + (hi - lo) * (row + 0.5) / height
        cells = "".join(c.center(col_width) for c in grid[row])
        lines.append(f"{level * 100:4.0f}% |{cells}")
    lines.append("      +" + "-" * (n_cols * col_width))
    lines.append("       "
                 + "".join(f"r{c}".center(col_width) for c in range(n_cols)))
    legend = "  ".join(f"{m}={label}" for label, m in markers.items())
    lines.append(f"       {legend}")
    return "\n".join(lines)
