"""Percentiles, the tail rule and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentiles a tail may be reported at.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def ops_beyond(n: int, p: float) -> int:
    """Operations above the p-th percentile of n operations."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten operations beyond it.

    None below forty operations: p75 is the lowest percentile that counts as a
    tail, and it needs forty operations for ten to lie beyond it.
    """
    usable = [p for p in TAIL_LADDER if ops_beyond(n, p) >= MIN_BEYOND]
    return max(usable) if usable else None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as `statistics.quantiles(values, n=4)` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
