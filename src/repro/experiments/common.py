"""Shared experiment-harness utilities: the default scale and formatting.

Experiments run the paper's circuits through the synthetic stand-ins at a
configurable ``scale`` (fraction of the published gate counts).  The
default keeps every harness laptop-fast; `scale=1.0` reproduces the
published sizes (slow in pure Python).  Overhead percentages and coverage
trends are size-relative, so the *shape* of each table is preserved at
reduced scale — EXPERIMENTS.md records the observed deltas.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

#: default scale for experiment harnesses (fraction of published size)
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.02"))


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table (the harnesses print paper-style rows)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    return str(cell)
