"""Time one user set-up in a fresh process and print the seconds.

From ``import levygrad`` until the workload's field, observable, clock and
default passage level are ready, which is what a user waits for before the
first estimate. The calibration kernel then runs three times in the same
process, so the caller can scale the set-up time to the reference host speed
(see calibrate.py). Prints {"setup_s": ..., "kernel_s": median kernel}.
``run.py`` starts this several times and reports the median.

    python3 bench/setup_probe.py <workload>
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402,F401  (pins threads, puts the checkout's src on the path)
from workloads import WORKLOADS, build  # noqa: E402


def main():
    workload = WORKLOADS[sys.argv[1]]
    start = perf_counter()
    import levygrad

    build(levygrad, workload)
    setup_s = perf_counter() - start
    from calibrate import Calibrator

    cal = Calibrator(1)
    cal.kernel()
    cal.kernel()
    print(json.dumps({"setup_s": setup_s, "kernel_s": statistics.median(cal.kernel_s)}))


if __name__ == "__main__":
    main()
