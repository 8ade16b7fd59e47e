#!/usr/bin/env python
"""Extending the library: write your own grouping mechanism.

Implements a *hybrid* mechanism on the public API: run DR-SC's greedy
cover, but cap the number of transmissions at a budget; devices left
over after the budget is spent are handled DA-SC-style (cycle
adaptation into the final window). The result interpolates between the
paper's two standards-compliant extremes.

This is exactly the extension point a downstream user would reach for —
subclass :class:`repro.GroupingMechanism`, produce a
:class:`repro.MulticastPlan` (its directives as
:class:`~repro.core.plan.PlanArrays` columns), and every executor,
validator and report in the library works unchanged.

Run:
    python examples/custom_mechanism.py
"""

from dataclasses import replace
from typing import Optional

import numpy as np

from repro import (
    CampaignExecutor,
    DaScMechanism,
    DrScMechanism,
    FirmwareImage,
    GroupingDecision,
    GroupingMechanism,
    MulticastPlan,
    OnDemandMulticastService,
    PAPER_DEFAULT_MIXTURE,
    PlanningContext,
    WakeMethod,
    generate_fleet,
)
from repro.core.plan import METHOD_CODE, PlanArrays
from repro.setcover.greedy import greedy_window_cover


class BudgetedHybridMechanism(GroupingMechanism):
    """DR-SC with a transmission budget; the tail is DA-SC-adapted.

    The greedy cover is truncated after ``budget - 1`` windows; all
    remaining devices are adapted (or paged) into one final window at
    t = announce + 2*maxDRX, exactly as DA-SC would do for the whole
    fleet.
    """

    name = "hybrid"
    standards_compliant = True
    respects_preferred_drx = False  # the tail devices get adapted

    def __init__(self, budget: int = 10) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        super().__init__()
        self._budget = budget
        self._dasc = DaScMechanism()

    def plan(
        self,
        fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        ti = context.inactivity_timer_frames
        horizon_end = context.announce_frame + 2 * int(fleet.max_cycle)
        cover = greedy_window_cover(
            fleet.phases, fleet.periods, ti, context.announce_frame,
            horizon_end, rng,
        )
        # Keep the biggest (first-selected) windows within budget, but
        # reserve the final slot for the DA-SC-style tail window.
        n_kept = min(self._budget - 1, cover.n_groups)
        cut = cover.bounds[n_kept]
        tail = np.setdiff1d(np.arange(len(fleet)), cover.members[:cut])

        # The kept windows page their members at a window PO, built as
        # plan columns straight from the fleet's arrays.
        frames, parts = [], []
        if n_kept:
            kept = GroupingDecision(
                cover.start[:n_kept],
                cover.end[:n_kept],
                cover.members[:cut],
                cover.bounds[: n_kept + 1],
            )
            rows = self._window_rows(fleet, context, kept)
            frames = (rows.group_end - 1).tolist()
            parts.append(
                PlanArrays(
                    rows.device,
                    rows.transmission,
                    METHOD_CODE[WakeMethod.PAGED_IN_WINDOW],
                    rows.page,
                    rows.page,
                )
            )
        if tail.size:
            # Delegate the tail to DA-SC on a subfleet, then re-index.
            tail_plan = self._dasc.plan(fleet.subset(tail.tolist()), context, rng)
            tail_columns = tail_plan.columns
            parts.append(
                replace(
                    tail_columns,
                    device=tail[tail_columns.device],
                    transmission=np.full(tail.size, n_kept),
                )
            )
            frames.append(tail_plan.transmissions[0].frame)
        columns = PlanArrays.concatenate(parts)
        return self._assemble(fleet, context, columns, frames)


def main() -> None:
    rng = np.random.default_rng(11)
    fleet = generate_fleet(300, PAPER_DEFAULT_MIXTURE, rng)
    image = FirmwareImage(name="hybrid-demo", version="1.0", size_bytes=100_000)

    print(f"{'mechanism':24} {'tx':>5} {'fleet light sleep':>18} "
          f"{'fleet connected':>16}")
    for mechanism in (
        DrScMechanism(),
        BudgetedHybridMechanism(budget=10),
        BudgetedHybridMechanism(budget=3),
        DaScMechanism(),
    ):
        service = OnDemandMulticastService(mechanism=mechanism)
        report = service.deliver(fleet, image, rng=np.random.default_rng(5))
        label = mechanism.name
        if isinstance(mechanism, BudgetedHybridMechanism):
            label = f"{mechanism.name}(budget={mechanism._budget})"
        totals = report.result.fleet
        print(
            f"{label:24} {report.plan.n_transmissions:5d} "
            f"{totals.light_sleep_s:16.1f}s {totals.connected_s:14.1f}s"
        )
    print(
        "\nA budget of ~10 transmissions captures most of DR-SC's grouping "
        "wins while\nadapting only the stragglers — an operating point the "
        "paper leaves unexplored."
    )


if __name__ == "__main__":
    main()
