"""Rendering helpers: percentile tables, CDFs and aligned text tables.

Every benchmark harness prints through these so the output rows read like
the paper's tables and can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "percentile_row",
    "cdf",
    "format_table",
    "format_percentile_table",
    "fraction_at_or_above",
]

DEFAULT_PERCENTILES = (10, 25, 50, 75, 90, 95)


def percentile_row(values: Sequence[float], percentiles: Sequence[int] = DEFAULT_PERCENTILES) -> Dict[int, float]:
    """Percentiles of a metric across queries, as the paper's tables report."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return {p: float("nan") for p in percentiles}
    return {p: float(np.percentile(arr, p)) for p in percentiles}


def cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative fraction)."""
    arr = np.sort(np.asarray(list(values), dtype=np.float64))
    if arr.size == 0:
        return arr, arr
    fractions = np.arange(1, arr.size + 1) / arr.size
    return arr, fractions


def fraction_at_or_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of values >= threshold (used for 'X% of queries gain >= 2x')."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.mean(arr >= threshold))


def format_table(rows: List[dict], title: str = "") -> str:
    """Align a list of homogeneous dicts into a text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    headers = list(rows[0].keys())
    widths = {h: max(len(str(h)), max(len(str(r.get(h, ""))) for r in rows)) for h in headers}
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def format_percentile_table(
    metrics: Dict[str, Sequence[float]],
    percentiles: Sequence[int] = DEFAULT_PERCENTILES,
    title: str = "",
    decimals: int = 2,
) -> str:
    """A paper-style table: one metric per row, percentiles as columns."""
    rows = []
    for name, values in metrics.items():
        row = {"metric": name}
        for p, v in percentile_row(values, percentiles).items():
            row[f"{p}th"] = round(v, decimals)
        rows.append(row)
    return format_table(rows, title)
