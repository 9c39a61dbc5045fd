"""Rendering experiment results as the paper's figures (ASCII form).

Each figure in Section 8 is a set of series over a swept parameter; this
module renders them as aligned text tables so a benchmark run prints the
same rows/curves the paper plots.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_series_table(
    title: str,
    x_name: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    float_format: str = "{:.3f}",
) -> str:
    """An aligned table: one row per x value, one column per series."""
    headers = [x_name] + list(series)
    rows = []
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in series:
            value = series[name][i]
            if value is None:
                row.append("-")
            elif isinstance(value, float):
                row.append(float_format.format(value))
            else:
                row.append(str(value))
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def series_to_dict(
    title: str,
    x_name: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
) -> dict:
    """The machine-readable twin of :func:`format_series_table`: the same
    sweep as a JSON-serializable dict (consumed by ``BENCH_ctree.json``)."""
    return {
        "title": title,
        "x_name": x_name,
        "x": list(xs),
        "series": {name: list(values) for name, values in series.items()},
    }


