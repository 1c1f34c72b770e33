"""Terminal line plots for the benches (no plotting dependency).

The paper's figures are line plots (PES curves, scaling curves, error
panels); on a headless host the benches render them as compact ASCII charts
next to the numeric tables.  Only the two shapes the figures need are
provided: multi-series line plots on a shared grid and log-scale support.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_MARKERS = "ox+*#@%&"


def line_plot(
    x,
    series: dict[str, list[float]],
    width: int = 64,
    height: int = 18,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> str:
    """Render ``series`` (name -> y values over the shared ``x``) as text.

    Each series gets a marker from a fixed cycle; the legend maps markers to
    names.  ``logy`` plots log10(y) (all values must be positive).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("x must be 1-D with at least two points")
    ys = {}
    for name, vals in series.items():
        v = np.asarray(vals, dtype=np.float64)
        if v.shape != x.shape:
            raise ValueError(f"series {name!r} length {v.shape} != x {x.shape}")
        if logy:
            if np.any(v <= 0):
                raise ValueError(f"logy requires positive values (series {name!r})")
            v = np.log10(v)
        ys[name] = v

    all_y = np.concatenate(list(ys.values()))
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if math.isclose(y_lo, y_hi):
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(x.min()), float(x.max())

    grid = [[" "] * width for _ in range(height)]

    def to_col(xv: float) -> int:
        return int(round((xv - x_lo) / (x_hi - x_lo) * (width - 1)))

    def to_row(yv: float) -> int:
        frac = (yv - y_lo) / (y_hi - y_lo)
        return (height - 1) - int(round(frac * (height - 1)))

    for si, (name, v) in enumerate(ys.items()):
        marker = _MARKERS[si % len(_MARKERS)]
        # connect consecutive points with linear interpolation
        for i in range(len(x) - 1):
            c0, c1 = to_col(x[i]), to_col(x[i + 1])
            for c in range(c0, c1 + 1):
                t = 0.0 if c1 == c0 else (c - c0) / (c1 - c0)
                yv = v[i] + t * (v[i + 1] - v[i])
                r = to_row(yv)
                if grid[r][c] == " ":
                    grid[r][c] = "."
        for i in range(len(x)):
            grid[to_row(v[i])][to_col(x[i])] = marker

    def fmt_val(val: float) -> str:
        shown = 10**val if logy else val
        return f"{shown:+.3g}"

    lines = []
    if title:
        lines.append(title)
    label_w = max(len(fmt_val(y_hi)), len(fmt_val(y_lo)))
    for r, row in enumerate(grid):
        if r == 0:
            label = fmt_val(y_hi).rjust(label_w)
        elif r == height - 1:
            label = fmt_val(y_lo).rjust(label_w)
        else:
            label = " " * label_w
        lines.append(f"{label} |{''.join(row)}|")
    lines.append(" " * label_w + " +" + "-" * width + "+")
    xaxis = f"{x_lo:+.3g}".ljust(width - 8) + f"{x_hi:+.3g}".rjust(8)
    lines.append(" " * label_w + "  " + xaxis)
    if xlabel or ylabel:
        lines.append(
            " " * label_w + "  " + xlabel
            + (f"   [y: {ylabel}{', log scale' if logy else ''}]" if ylabel else "")
        )
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} = {name}" for i, name in enumerate(ys)
    )
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)
