"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same op can take twice as long for tens of
seconds at a time, and process CPU time grows with wall time when it does,
so the slowdown is the core running slower, not the process waiting.
Run-to-run spread of raw wall times is then far above any useful
regression bound.  The benchmark therefore runs a fixed pure-Python task
before every op, and reports each op's wall time scaled to "reference
seconds": the time the op would take on a machine where the task takes
``REFERENCE_S``.  The task uses the same kinds of work as the package
(Fraction arithmetic, list-of-tuple matrix products, dict inserts) and
nothing from it, so a change to the package cannot move the scale.
"""

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003  # the task's time at reference speed
WINDOW = 4  # an op is scaled by the median task time of 2 * WINDOW + 1 neighbours


def _task():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    grid = [[(i * j) % 97 for j in range(32)] for i in range(32)]
    cols = list(zip(*grid))
    prod = [[sum(a * b for a, b in zip(r, c)) % 97 for c in cols] for r in grid]
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = i
    return acc, prod, len(table)


def calibrate():
    """Wall seconds for one run of the calibration task."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


def scales(task_times):
    """Per-op factors from wall seconds to reference seconds."""
    n = len(task_times)
    return [
        REFERENCE_S / statistics.median(task_times[max(0, k - WINDOW) : k + WINDOW + 1])
        for k in range(n)
    ]
