"""Order statistics shared by the runner and the comparison report."""

from __future__ import annotations

import math
import random
import statistics
from typing import Sequence, Tuple


# The percentiles a tail may be reported at.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, percentile: float) -> int:
    """Nearest-rank position (1-based) of ``percentile`` among ``n``."""
    return max(1, math.ceil(n * percentile / 100 - 1e-9))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``.  The deepest
    percentile that leaves exactly ten samples above it is an order
    statistic of ten outliers once thousands of units run: on a shared
    2-core box the service workload's p99.8 moved 25-47% run to run.  A
    fixed ladder keeps at least ten, and on most runs far more, samples
    beyond the reported percentile.  Below forty samples it reports the
    median (p50), the same value as ``latency_p50_s``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    percentile = max(
        p for p in TAIL_LADDER
        if p == TAIL_LADDER[0] or n - _rank(n, p) >= 10
    )
    if percentile == TAIL_LADDER[0]:
        return statistics.median(ordered), percentile, n
    return ordered[_rank(n, percentile) - 1], percentile, n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def bootstrap_median_ci(
    values: Sequence[float], resamples: int = 50, seed: int = 0,
) -> Tuple[float, float]:
    """2.5th/97.5th percentiles of the median over bootstrap resamples."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(resamples)
    )
    low = medians[int(0.025 * (resamples - 1))]
    high = medians[int(round(0.975 * (resamples - 1)))]
    return low, high
