#!/usr/bin/env python3
"""Rewrite ``pins.json``: each workload's per-run statistics at seed 2018.

The pins are always computed on the serial backend, so the fused
workload is checked against serial values. Sizes pinned: the workload's
own and the self-test's. Run from the root of a checkout::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json

from run import import_program
from workloads import PINS_PATH, SMALL_DEVICES, WORKLOADS, run_values

SEED = 2018


def main() -> None:
    scenarios = import_program()
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {str(SEED): {}}
        for n_devices in (workload.n_devices, SMALL_DEVICES):
            stats = scenarios.run_scenario(
                workload.spec(SEED, n_devices), backend="serial"
            )
            pins[name][str(SEED)][str(n_devices)] = run_values(stats)
            print(name, n_devices, pins[name][str(SEED)][str(n_devices)])
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
