"""Rendering of paper-style result tables + a process-wide registry.

A benchmark helper, not part of the ``repro`` package.  Benchmarks
register their rendered tables here; the pytest hook in
``benchmarks/conftest.py`` prints every registered experiment at the end of
the run (so ``pytest benchmarks/ --benchmark-only | tee ...`` captures them)
and mirrors each one to ``benchmarks/results/<name>.txt``.
"""
from __future__ import annotations

import os
from pathlib import Path

__all__ = ["format_table", "ExperimentRegistry", "registry"]


def format_table(title: str, headers: list[str], rows: list[list], notes: str = "") -> str:
    """Fixed-width table renderer (floats to 6 decimals, None -> 'n/a')."""

    def fmt(cell) -> str:
        if cell is None:
            return "n/a"
        if isinstance(cell, float):
            return f"{cell:.6f}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)


class ExperimentRegistry:
    def __init__(self):
        self.reports: dict[str, str] = {}

    def record(self, name: str, text: str, echo: bool = True) -> None:
        self.reports[name] = text
        out_dir = Path(os.environ.get("NNQS_BENCH_RESULTS", "benchmarks/results"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.txt").write_text(text + "\n")
        except OSError:
            pass
        if echo:
            print("\n" + text + "\n")

    def dump(self) -> str:
        return "\n\n".join(self.reports[k] for k in sorted(self.reports))


registry = ExperimentRegistry()
