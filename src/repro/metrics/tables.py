"""Plain-text table and series formatting for the benchmark harness.

The benchmarks regenerate the paper's tables and figures as printed text:
aligned tables for Table II/V/VI-style comparisons and simple labelled
series for the figures.  Keeping the formatting here keeps the benchmark
files focused on the experiments themselves.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_series", "normalize_speedups"]


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render a list of dict rows as an aligned plain-text table.

    Column order follows the keys of the first row; later rows may omit
    keys (rendered as blank) but may not introduce new ones.
    """
    if not rows:
        return (title + "\n") if title else ""
    columns = list(rows[0].keys())
    for row in rows[1:]:
        unknown = set(row.keys()) - set(columns)
        if unknown:
            raise ValueError("rows introduce unknown columns: %s" % ", ".join(sorted(unknown)))

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return "%.4g" % value
        return str(value)

    rendered = [[fmt(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for line in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines) + "\n"


def format_series(series: Mapping[str, Iterable[float]], title: str | None = None) -> str:
    """Render named numeric series (the figure line plots) as text rows."""
    lines = []
    if title:
        lines.append(title)
    for name, values in series.items():
        formatted = ", ".join("%.4g" % float(value) for value in values)
        lines.append("%s: [%s]" % (name, formatted))
    return "\n".join(lines) + "\n"


def normalize_speedups(times: Mapping[str, float], baseline: str) -> dict[str, float]:
    """Speedup of every entry relative to ``baseline`` (Figure 8/10 style).

    ``speedup[s] = time[baseline] / time[s]``; the baseline itself maps
    to 1.0.  Raises ``KeyError`` if the baseline is missing and
    ``ValueError`` if its time is non-positive.
    """
    if baseline not in times:
        raise KeyError("baseline %r not present" % baseline)
    reference = times[baseline]
    if reference <= 0:
        raise ValueError("baseline time must be positive")
    return {name: reference / value if value > 0 else float("inf") for name, value in times.items()}
