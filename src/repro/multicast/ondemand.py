"""The on-demand multicast service facade.

Wires the full pipeline of the paper's reference [3] together:

1. the coordination entity supplies the device list and the payload;
2. the eNB plans the campaign with a chosen grouping mechanism;
3. the plan is validated and executed (the scenario runner's cell calls
   the same entry points), producing per-device uptime/energy ledgers;
4. the paging load and carrier occupancy are folded from the plan's
   columns.

This is the high-level public API the examples use::

    service = OnDemandMulticastService(mechanism=DaScMechanism())
    report = service.deliver(fleet, image, rng=rng)
    print(report.summary())

``deliver`` is the one-shot batch path. The live
:class:`~repro.service.CampaignService` calls the same entry points
itself — plan and validate at submit, :func:`~repro.core.plan.revise_plan`
on churn — and builds its report with the same
:func:`campaign_report`. Both consume the campaign's generator in one
order (plan, then execute), so a live campaign without churn is
*bit-identical* to ``deliver`` with the same generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import MulticastPlan, plan_pages
from repro.devices.fleet import Fleet
from repro.enb.cell import CellConfig
from repro.enb.paging_channel import PagingLoadReport, paging_load
from repro.enb.scheduler import UtilizationReport, utilization
from repro.multicast.payload import FirmwareImage
from repro.rrc.procedures import ProcedureTimings
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import CampaignResult
from repro.timebase import format_bytes, format_duration, frames_to_seconds


@dataclass(frozen=True)
class CampaignReport:
    """Everything a campaign produced, bundled for inspection."""

    plan: MulticastPlan
    result: CampaignResult
    paging: PagingLoadReport
    utilization: UtilizationReport

    def summary(self) -> str:
        """A multi-line human-readable campaign summary."""
        fleet = self.result.fleet
        spilled = sum(len(devices) for _, _, devices in self.paging.overflowed)
        lines = [
            f"mechanism           : {self.plan.mechanism}",
            f"standards compliant : {self.plan.standards_compliant}",
            f"payload             : {format_bytes(self.plan.payload_bytes)}",
            f"transmissions       : {self.plan.n_transmissions}",
            f"campaign duration   : "
            f"{format_duration(frames_to_seconds(self.result.horizon_frames))}",
            f"paging messages     : {self.paging.total_pages} pages in "
            f"{self.paging.occupied_occasions} occasions",
            f"paging overflow     : {spilled} records over capacity at "
            f"{len(self.paging.overflowed)} occasions",
            f"carrier airtime     : {self.utilization.total_airtime_s:.1f}s "
            f"({self.utilization.utilization * 100:.2f}% of horizon)",
            f"fleet light sleep   : {fleet.light_sleep_s:.1f}s",
            f"fleet connected     : {fleet.connected_s:.1f}s",
            f"fleet energy        : {fleet.energy_mj / 1000:.1f} J",
        ]
        return "\n".join(lines)


class OnDemandMulticastService:
    """Delivers content to a device list via a grouping mechanism."""

    def __init__(
        self,
        mechanism: GroupingMechanism,
        cell: CellConfig = CellConfig(),
        timings: ProcedureTimings = ProcedureTimings(),
    ) -> None:
        self._mechanism = mechanism
        self._cell = cell
        self._timings = timings

    @property
    def mechanism(self) -> GroupingMechanism:
        """The grouping mechanism in use."""
        return self._mechanism

    def deliver(
        self,
        fleet: Fleet,
        image: FirmwareImage,
        rng: Optional[np.random.Generator] = None,
        announce_frame: int = 0,
    ) -> CampaignReport:
        """Run a full campaign: plan, validate, execute, then report."""
        context = PlanningContext(
            payload_bytes=image.size_bytes,
            cell=self._cell,
            timings=self._timings,
            announce_frame=announce_frame,
        )
        plan = self._mechanism.plan(fleet, context, rng)
        plan.validate(fleet)
        return campaign_report(fleet, plan, context, rng)


def campaign_report(
    fleet: Fleet,
    plan: MulticastPlan,
    context: PlanningContext,
    rng: Optional[np.random.Generator] = None,
) -> CampaignReport:
    """Execute a validated plan under ``context``'s timings, then fold
    its paging load and carrier occupancy from the plan's columns."""
    result = CampaignExecutor(timings=context.timings).execute(fleet, plan, rng=rng)
    paging = paging_load(plan_pages(fleet, plan), context.cell.max_paging_records)
    table = plan.transmissions
    return CampaignReport(
        plan=plan,
        result=result,
        paging=paging,
        utilization=utilization(
            table.frame, table.duration_frames, result.horizon_frames
        ),
    )
