#!/usr/bin/env python3
"""One benchmark set-up in a fresh interpreter; prints its seconds.

``run.py`` starts this several times and reports the median as
``setup_s``: from importing repro, through building the workload's
spec, to the end of one small warm-up campaign::

    python3 perfbench/setup_probe.py WORKLOAD SEED N_DEVICES
"""

from __future__ import annotations

import sys
import time

from run import Campaigns, import_program, stop_resource_tracker, warm_up
from workloads import WORKLOADS


def main() -> None:
    name, seed, n_devices = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    scenarios = import_program()
    try:
        warm_up(Campaigns(scenarios, WORKLOADS[name], seed, n_devices))
    finally:
        stop_resource_tracker()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
