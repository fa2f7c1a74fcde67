"""Machine-speed reference for the benchmark's timings.

The shared 2-core machines this benchmark runs on change speed by 20-40 %
over tens of seconds, far more than the changes the benchmark is meant to
resolve. So a fixed pure-Python kernel, doing the same kinds of work as the
program (float math, building, sorting and hashing lists of tuples), is
timed right before every op. Each op's wall time is scaled by ``REF_S`` over
the median kernel time of the ops around it. That gives its time at the
reference speed, at which the kernel takes ``REF_S``. The program never runs
the kernel, so a change to the program cannot move it.

Over ten seeded runs per workload on a 2-core Xeon, the quartile spread of
the scaled latency and throughput figures was 1-8 %; that of the same
runs' wall figures was 7-38 %.
"""

import math
import statistics
import time

# Kernel time at the reference speed, a constant near its median on a
# 2-core Xeon.
REF_S = 0.0005
# Ops on each side of an op whose kernel times set its scale.
WINDOW = 8


def _kernel(n: int = 400) -> int:
    """Float math on a few locals, then a sort and a set over a list of
    tuples: the interpreter-bound and the allocation-bound halves of the
    program's work, about equal in time."""
    acc = 0.0
    for i in range(n):
        x = (i % 17) * 0.25 - 2.0
        acc += math.hypot(x, math.exp(-abs(x)) + math.log1p(i)) * math.atan2(x, 3.0)
    pts = [(math.log1p(i * 7919 % 1009), acc) for i in range(n)]
    pts.sort()
    return len(set(pts))


def sample() -> float:
    """Seconds the kernel takes now (best of two runs)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scales(samples: list) -> list:
    """Per-op factor REF_S / (median kernel time within WINDOW ops)."""
    n = len(samples)
    return [REF_S / statistics.median(samples[max(0, k - WINDOW):k + WINDOW + 1])
            for k in range(n)]

