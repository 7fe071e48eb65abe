"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Percentiles a timing may be reported at, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int) -> float | None:
    """Highest percentile in ``PERCENTILES`` with at least ``MIN_BEYOND`` of
    ``n`` samples above it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def describe(values) -> dict:
    """Sample count, median, and the tail percentile the count supports."""
    values = list(values)
    out = {"n": len(values), "median": median(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def relative_iqr(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

