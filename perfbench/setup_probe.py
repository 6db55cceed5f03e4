"""Time one set-up of a workload: import noisyquery, build the workload's
specs and run one warm-up trial. Prints the seconds taken and the
machine's slowdown (see calibrate.py), measured just before.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

from calibrate import slowdown

slow = slowdown()
start = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.warm_up(sys.argv[1])
print(repr(time.perf_counter() - start), repr(slow))
