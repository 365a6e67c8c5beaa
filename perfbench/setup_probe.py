"""Set up one workload in a fresh process and say when its first op could run.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints "ready" once the imports, algebra builds and seeded inputs are done,
then reports the calibration kernel on stderr.  run.py starts this several
times and reports the median spawn-to-ready time as setup_s.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    import calibration

    calibration.report_from_child(time.perf_counter())
