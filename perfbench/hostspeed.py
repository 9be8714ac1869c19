"""A fixed calibration workload that tracks how fast the host runs Python.

On a shared machine the speed of one core drifts by up to 40% over seconds
and sometimes stays low for a whole run; every operation slows by the same
factor.  The benchmark times this loop just before and just after each operation
and scales the operation's wall time by `CALIB_S` over the mean of the two
loop times, which cancels most of the drift.  The loop does what the
program does most: build tuples and strings, hash them into a dict, sort.
"""
from __future__ import annotations

import time

# Scale of the normalised times: the loop's typical time on an idle core of
# the 2-vCPU x86-64 host the benchmark was defined on, so normalised times
# read close to wall time there.
CALIB_S = 0.0135


def _loop() -> float:
    t = time.perf_counter()
    d: dict[tuple[str, int], int] = {}
    for i in range(20000):
        k = (f"v{i % 997}", i % 13)
        d[k] = d.get(k, 0) + 1
    sorted(d.items())
    return time.perf_counter() - t


def loop_seconds() -> float:
    """The loop's time now: the faster of two tries."""
    return min(_loop(), _loop())


def scale(before: float, after: float) -> float:
    """Factor turning a wall time measured between two loop timings into
    normalised seconds."""
    return CALIB_S / ((before + after) / 2)
