"""Machine-speed calibration for the throughput metrics.

The reference machine is shared: for tens of seconds at a time its
cores run up to twice as fast or slow, so the raw rate of a repetition
says as much about the neighbours as about noisyquery. Before each
repetition the benchmark times a fixed pure-Python loop, of the same
kind of work as the toolkit's hot loops (float compares, integer steps,
list and dict access, heap pushes and pops), and scales the repetition's
rate by how much slower than the reference that loop ran. Measured over
25-second windows of one workload, this cut the spread between windows
from about 9% to about 3.5%.
"""

from __future__ import annotations

import heapq
import random
import time

# median time of calibration_seconds() on the reference machine (2 shared
# cores of an Intel Xeon, Python 3.11.7); scaled rates are rates at that speed
REFERENCE_SECONDS = 0.020

_RNG = random.Random(12345)
_VALUES = [_RNG.random() for _ in range(4096)]


def calibration_seconds() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    start = time.perf_counter()
    level = 0
    last = {}
    heap = []
    for _ in range(4):
        for i, x in enumerate(_VALUES):
            level += 1 if x < 0.25 else -1
            last[i & 255] = level
            heapq.heappush(heap, (x, i))
        while heap:
            heapq.heappop(heap)
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than the reference the machine runs now."""
    return calibration_seconds() / REFERENCE_SECONDS
