"""Order statistics used by the benchmark report."""

import math
import statistics

# Standard percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(sorted_values, pct):
    """(value, samples beyond it) at the nearest-rank percentile pct."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100.0))
    return sorted_values[rank - 1], n - rank


def tail(values):
    """Latency at the highest ladder percentile that has at least ten
    samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 20
    samples no ladder percentile qualifies; the result is then the median,
    and the caller sees from the count that fewer than ten samples lie
    beyond it.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of no values")
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(xs, pct)
        if beyond >= MIN_BEYOND:
            return value, pct, beyond
    value, beyond = nearest_rank(xs, TAIL_LADDER[-1])
    return value, TAIL_LADDER[-1], beyond


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
