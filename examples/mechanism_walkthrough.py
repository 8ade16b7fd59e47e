#!/usr/bin/env python
"""Protocol walkthrough: the paper's Figs. 2-5 as an executable trace.

Builds a five-device micro-fleet, plans DA-SC and DR-SI on it,
executes each campaign with its event log recorded, and prints every
logged page, adaptation episode, T322 expiry, connection and
transmission — the textual equivalent of the paper's protocol figures.

Run:
    python examples/mechanism_walkthrough.py
"""

import numpy as np

from repro import (
    CampaignExecutor,
    DaScMechanism,
    DrSiMechanism,
    NbIotDevice,
    Fleet,
    PlanningContext,
    DrxCycle,
    WakeMethod,
)
from repro.sim import KIND_CODES, EventKind, EventLogRecorder
from repro.sim.eventlog import CODE_TO_KIND


def build_fleet() -> Fleet:
    cycles_s = [20.48, 40.96, 327.68, 1310.72, 2621.44]
    return Fleet.from_devices(
        [
            NbIotDevice.build(
                imsi=100_000_000_000_000 + 911 * i,
                cycle=DrxCycle.from_seconds(seconds),
            )
            for i, seconds in enumerate(cycles_s)
        ]
    )


def explain_plan(plan, fleet) -> None:
    t = plan.transmissions[0].frame
    print(f"  transmission at frame {t} (t = announce + 2*maxDRX = "
          f"{t * 0.010:.2f}s), window = [t-TI, t)")
    for directive in sorted(plan.directives, key=lambda d: d.device_index):
        device = fleet[directive.device_index]
        line = (
            f"  dev{directive.device_index} (T={device.cycle.seconds:g}s): "
            f"{directive.method.value}"
        )
        if directive.method is WakeMethod.DRX_ADAPTATION:
            line += (
                f" — paged at {directive.adaptation_page_frame}, cycle "
                f"{device.cycle.seconds:g}s -> "
                f"{directive.adapted_cycle.seconds:g}s, window PO at "
                f"{directive.page_frame}"
            )
        elif directive.method is WakeMethod.EXTENDED_PAGE_TIMER:
            line += (
                f" — extended page at {directive.page_frame}, T322 fires at "
                f"{directive.t322.expires_at_frame}"
            )
        else:
            line += f" — paged at window PO {directive.page_frame}"
        print(line)


def trace_campaign(plan, fleet) -> None:
    recorder = EventLogRecorder()
    CampaignExecutor().execute(fleet, plan, recorder=recorder)
    events = recorder.finalize().events
    rows = events[events["kind"] != KIND_CODES[EventKind.PO_MONITOR]]
    print(f"  {events.size} events logged; the {rows.size} non-monitoring "
          f"ones (a/b: the kind's payload, see repro.sim.eventlog):")
    for row in rows:
        kind = CODE_TO_KIND[int(row["kind"])].value
        # Transmission rows name their transmission (group), not a device.
        who = (f"dev{row['device']}" if row["device"] >= 0
               else f"tx{row['group']}")
        print(f"    frame {row['frame']:>7}  {who:<5} {kind:<16} "
              f"a={row['a']:<10.6g} b={row['b']:.6g}")


def main() -> None:
    fleet = build_fleet()
    context = PlanningContext(payload_bytes=50_000)
    rng = np.random.default_rng(3)

    print("== DA-SC walkthrough (paper Fig. 5) ==")
    dasc_plan = DaScMechanism().plan(fleet, context, rng)
    dasc_plan.validate(fleet)
    explain_plan(dasc_plan, fleet)
    trace_campaign(dasc_plan, fleet)

    print("\n== DR-SI walkthrough (paper Sec. III-C) ==")
    drsi_plan = DrSiMechanism().plan(fleet, context, rng)
    drsi_plan.validate(fleet)
    explain_plan(drsi_plan, fleet)
    trace_campaign(drsi_plan, fleet)


if __name__ == "__main__":
    main()
