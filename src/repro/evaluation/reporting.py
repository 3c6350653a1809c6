"""Experiment reporting: ASCII tables.

The benchmark harness prints paper-style tables; this module provides the
renderers.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["format_table", "format_failures"]


def _render_cell(value, spec: Optional[str]) -> str:
    if isinstance(value, bool):
        # Feature flags (e.g. the deployment tables' "fits L2" column)
        # read as yes/no, not Python reprs.
        return "yes" if value else "no"
    if spec and isinstance(value, (int, float)):
        return format(value, spec)
    return str(value)


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 formats: Optional[Sequence[Optional[str]]] = None) -> str:
    """Monospace table with right-aligned numeric columns."""
    formats = formats or [None] * len(headers)
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must match the header length")
    cells = [[_render_cell(v, f) for v, f in zip(row, formats)] for row in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    numeric = [all(_is_numeric(row[i]) for row in rows) if rows else False
               for i in range(len(headers))]

    def line(parts, pad=" "):
        out = []
        for i, part in enumerate(parts):
            out.append(part.rjust(widths[i]) if numeric[i] else part.ljust(widths[i]))
        return pad.join(out)

    sep = "-+-".join("-" * w for w in widths)
    body = [line(headers), sep]
    body.extend(line(row) for row in cells)
    return "\n".join(body)


def format_failures(points: Sequence) -> str:
    """Failure table for a fault-tolerant DSE sweep.

    ``points`` are failed :class:`repro.evaluation.DSEPoint` objects
    (``status != "ok"``); the table shows what went wrong per grid point
    so a CLI sweep surfaces failures without drowning the results.
    """
    rows = [(p.lam, p.warmup_epochs, p.attempts, p.error or "unknown error")
            for p in points]
    return format_table(["lambda", "warmup", "attempts", "error"], rows,
                        formats=["g", "d", "d", None])
