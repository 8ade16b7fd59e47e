#!/usr/bin/env python
"""City-scale firmware rollout: the paper's motivating scenario.

A utility pushes a 1 MB firmware image to 1000 smart meters and city
sensors. The example compares what the rollout costs the network
(carrier airtime, paging load) and the devices (uptime, energy,
battery-life impact) under DA-SC — the paper's recommended mechanism —
against the unicast status quo, and converts the per-device energy into
10-year-battery terms.

Run:
    python examples/firmware_rollout.py
"""

import numpy as np

from repro import (
    Battery,
    DaScMechanism,
    FirmwareImage,
    OnDemandMulticastService,
    PAPER_DEFAULT_MIXTURE,
    UnicastBaseline,
    generate_fleet,
)
from repro.timebase import format_duration


def describe(report, battery: Battery) -> None:
    fleet_totals = report.result.fleet
    n = len(report.result)
    per_device_mj = fleet_totals.energy_mj / n
    print(report.summary())
    print(
        f"per-device energy   : {per_device_mj:.1f} mJ "
        f"({battery.fraction_consumed(per_device_mj) * 100:.5f}% of a "
        f"{battery.capacity_mah:.0f} mAh battery)"
    )
    waits = report.result.wait_s
    print(f"mean connected wait : {np.mean(waits):.1f}s (max {np.max(waits):.1f}s)")


def main() -> None:
    rng = np.random.default_rng(42)
    fleet = generate_fleet(1000, PAPER_DEFAULT_MIXTURE, rng)
    image = FirmwareImage(name="meter-fw", version="7.0.1", size_bytes=1_000_000)
    battery = Battery(capacity_mah=5000)

    print(f"== rollout of {image} to {len(fleet)} devices ==\n")

    print("--- DA-SC (paper's recommended mechanism) ---")
    dasc = OnDemandMulticastService(mechanism=DaScMechanism())
    dasc_report = dasc.deliver(fleet, image, rng=np.random.default_rng(1))
    describe(dasc_report, battery)

    print("\n--- unicast status quo ---")
    unicast = OnDemandMulticastService(mechanism=UnicastBaseline())
    unicast_report = unicast.deliver(fleet, image, rng=np.random.default_rng(1))
    describe(unicast_report, battery)

    saved = (
        unicast_report.utilization.total_airtime_s
        - dasc_report.utilization.total_airtime_s
    )
    print(
        f"\nDA-SC delivers the rollout in "
        f"{dasc_report.plan.n_transmissions} transmission(s) instead of "
        f"{unicast_report.plan.n_transmissions}, freeing "
        f"{format_duration(saved)} of NB-IoT carrier airtime."
    )


if __name__ == "__main__":
    main()
