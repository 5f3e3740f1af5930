"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(1, math.ceil(q / 100 * n))


def highest_percentile(n: int) -> int:
    """The highest whole percentile with at least MIN_BEYOND samples beyond it,
    or 0 when n is too small for any."""
    for q in range(99, 0, -1):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 0


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile; refuses one with fewer than
    MIN_BEYOND samples beyond it, since such a tail is not measured."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it")
    return xs[max(1, math.ceil(q / 100 * n)) - 1]


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
