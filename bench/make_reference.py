"""Regenerate the pinned finite-difference reference in workloads.py.

Runs one high-precision common-random-number FD estimate of the quickstart
gradient and prints the value, its standard error, N and the seed, to be
copied into FD_REFERENCE. Takes about a minute on 2 cores.

    python3 bench/make_reference.py
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402  (pins threads and puts the checkout's src on the path)

import levygrad  # noqa: E402
from workloads import FD_REFERENCE, WORKLOADS, build  # noqa: E402


def main():
    w = replace(WORKLOADS["fd_crn"], n_paths=FD_REFERENCE["n_paths"])
    problem = build(levygrad, w)
    start = time.perf_counter()
    res = problem.run(FD_REFERENCE["seed"])
    elapsed = time.perf_counter() - start
    print(json.dumps({
        "value": res.mean,
        "std_error": res.std_error,
        "n_paths": w.n_paths,
        "seed": FD_REFERENCE["seed"],
        "workers": w.workers,
        "elapsed_s": elapsed,
    }))


if __name__ == "__main__":
    main()
