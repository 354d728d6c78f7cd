"""Summary statistics for per-operation samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    # exact arithmetic: 99.9% of 10000 must be rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of all samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(pct, value)``, or None when even the median leaves fewer
    than ten samples above it.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return None


def median(samples) -> float:
    return float(statistics.median(samples))

