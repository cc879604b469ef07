"""Order statistics used by the benchmark's reports."""
from __future__ import annotations

import statistics


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float] | None:
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value) where value is the sample with exactly
    `beyond` samples after it in sorted order, and percentile is its
    rank as a share of the sample count, in percent.  With `beyond`
    samples or fewer no such percentile exists and None is returned.
    """
    xs = sorted(samples)
    k = len(xs) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def quartile_spread(samples) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
