#!/usr/bin/env python
"""Protocol walkthrough: the paper's Figs. 2-5 as an executable trace.

Builds a five-device micro-fleet, plans DA-SC and DR-SI on it, and
replays the campaign on the discrete-event engine with tracing enabled,
printing every paging occasion, page, adaptation episode, T322 expiry
and transmission — the textual equivalent of the paper's protocol
figures.

Run:
    python examples/mechanism_walkthrough.py
"""

import numpy as np

from repro import (
    DaScMechanism,
    DrSiMechanism,
    EventDrivenCampaign,
    NbIotDevice,
    Fleet,
    PlanningContext,
    DrxCycle,
    WakeMethod,
)


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


def trace_campaign(plan, fleet, max_lines: int = 25) -> None:
    campaign = EventDrivenCampaign(fleet, plan, trace=True)
    campaign.run()
    trace = campaign.simulator.trace
    interesting = [
        e for e in trace if e.kind.value != "po_monitor"
    ]
    print(f"  {len(trace)} events total; the {len(interesting)} "
          f"non-monitoring ones:")
    for event in interesting[:max_lines]:
        print(f"    {event}")
    if len(interesting) > max_lines:
        print(f"    ... {len(interesting) - max_lines} more")


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
