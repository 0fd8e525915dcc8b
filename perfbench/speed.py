"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of a core drifts by 15-25% over tens of
seconds (neighbouring load, frequency changes), and the time of a
CPU-bound unit tracks it.  The benchmark therefore times a fixed
pure-Python loop next to the units it measures and reports times
scaled to a reference speed::

    scaled time = measured time * REFERENCE_S / calibration time

where the calibration time is the median of a few runs of the loop
taken right before and after the unit (or the stretch of units).  A
scaled second is a second on a machine where the loop takes
:data:`REFERENCE_S`; the raw measured values are kept next to the
scaled ones in every run record.  The loop is part of the benchmark,
so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

# Median time of calibrate()'s loop on the 2-core x86-64 reference box
# the baseline was measured on (CPython 3.11).
REFERENCE_S = 0.00236
_LOOP = 10_000
_REPEATS = 9


def _loop(n: int) -> float:
    """Interpreter-bound mix: dict get/set, float arithmetic, a sort."""
    table = {}
    total = 0.0
    for i in range(n):
        key = i & 63
        table[key] = table.get(key, 0.0) * 0.5 + i
        total += (i * 0.75) % 3.0
    return total + len(sorted(table.items()))


def calibrate() -> float:
    """Median seconds of the fixed loop, right now."""
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _loop(_LOOP)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def factor(*calibrations: float) -> float:
    """How much slower than the reference the machine ran (>1: slower)."""
    return statistics.fmean(calibrations) / REFERENCE_S
