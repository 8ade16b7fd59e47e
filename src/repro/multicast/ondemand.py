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

``deliver`` is the one-shot batch path. The same pipeline is also
available in three stages — :meth:`~OnDemandMulticastService.submit`
(plan), :meth:`~OnDemandMulticastService.revise` (apply mid-campaign
joins/leaves via :func:`~repro.core.plan.revise_plan`) and
:meth:`~OnDemandMulticastService.complete` (account + execute) — which
is what the live :mod:`repro.service` facade drives. A submit/complete
pair with no churn is *bit-identical* to ``deliver`` with the same
generator: both consume the rng in the same order (plan, then execute).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import MulticastPlan, PlanRevision, plan_pages, revise_plan
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.enb.cell import CellConfig
from repro.enb.paging_channel import PagingLoadReport, paging_load
from repro.enb.scheduler import DownlinkScheduler, UtilizationReport
from repro.errors import PlanError
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


@dataclass
class PendingCampaign:
    """A submitted campaign that has not completed yet.

    Returned by :meth:`OnDemandMulticastService.submit`; mutated in
    place by :meth:`OnDemandMulticastService.revise` as devices join or
    leave. The *working fleet* is append-only — joiners are appended,
    leavers stay in the fleet (recorded in :attr:`left`) so no index
    ever shifts mid-campaign — and :meth:`OnDemandMulticastService.
    complete` strips the leavers out when building the final report.

    Attributes:
        image: the payload being delivered.
        context: the planning context the campaign was planned under.
        fleet: the working fleet (submit fleet + every joiner).
        plan: the current plan (revised on churn).
        left: working-fleet indices of devices that left.
        revisions: every :class:`~repro.core.plan.PlanRevision` applied.
        validated: the plan :meth:`OnDemandMulticastService.submit`
            validated; ``complete`` validates again only a plan that
            has been replaced since.
    """

    image: FirmwareImage
    context: PlanningContext
    fleet: Fleet
    plan: MulticastPlan
    left: Set[int] = field(default_factory=set)
    revisions: List[PlanRevision] = field(default_factory=list)
    validated: Optional[MulticastPlan] = field(default=None, repr=False)

    @property
    def active_members(self) -> Tuple[int, ...]:
        """Working-fleet indices still part of the campaign."""
        return tuple(
            i for i in range(len(self.fleet)) if i not in self.left
        )


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
        self._executor = CampaignExecutor(timings=timings)

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
        """Run a full campaign: plan, validate, account, execute.

        Equivalent to :meth:`submit` immediately followed by
        :meth:`complete` with the same generator — the staged path
        exists for the live service, which revises plans in between.
        """
        pending = self.submit(
            fleet, image, rng=rng, announce_frame=announce_frame
        )
        return self.complete(pending, rng=rng)

    def submit(
        self,
        fleet: Fleet,
        image: FirmwareImage,
        rng: Optional[np.random.Generator] = None,
        announce_frame: int = 0,
    ) -> PendingCampaign:
        """Plan and validate a campaign without executing it."""
        context = PlanningContext(
            payload_bytes=image.size_bytes,
            cell=self._cell,
            timings=self._timings,
            announce_frame=announce_frame,
        )
        plan = self._mechanism.plan(fleet, context, rng)
        plan.validate(fleet)
        return PendingCampaign(
            image=image, context=context, fleet=fleet, plan=plan, validated=plan
        )

    def revise(
        self,
        pending: PendingCampaign,
        *,
        joined_devices: Sequence[NbIotDevice] = (),
        left: Sequence[int] = (),
        now_frame: int = 0,
    ) -> PlanRevision:
        """Apply mid-campaign churn to a pending campaign.

        ``joined_devices`` are appended to the working fleet (their
        indices never collide with existing members); ``left`` are
        working-fleet indices leaving at ``now_frame``. The pending
        campaign's fleet and plan are updated in place and the
        :class:`~repro.core.plan.PlanRevision` delta is returned.
        """
        for index in left:
            if index in pending.left:
                raise PlanError(f"device {index} already left the campaign")
        if joined_devices:
            # Columnar append: concatenate the joiners' rows onto the
            # working fleet's arrays instead of rebuilding the whole
            # device list (the working fleet may be large and lazy).
            working = Fleet.concatenate(
                [pending.fleet, Fleet.from_devices(joined_devices)]
            )
        else:
            working = pending.fleet
        joined = tuple(range(len(pending.fleet), len(working)))
        revision = revise_plan(
            pending.plan,
            working,
            joined=joined,
            left=tuple(left),
            now_frame=now_frame,
            context=pending.context,
        )
        pending.fleet = working
        pending.plan = revision.revised
        pending.left.update(int(i) for i in left)
        pending.revisions.append(revision)
        return revision

    def complete(
        self,
        pending: PendingCampaign,
        rng: Optional[np.random.Generator] = None,
    ) -> CampaignReport:
        """Execute and account a pending campaign's current plan.

        Devices that left are stripped out first (the working fleet
        keeps them only so indices stay stable mid-flight); the final
        plan is validated unless it is the one :meth:`submit` validated,
        then executed and accounted exactly as :meth:`deliver` would.
        """
        fleet, plan = _strip_left(pending.fleet, pending.plan, pending.left)
        if plan is not pending.validated:
            plan.validate(fleet)
        result = self._executor.execute(fleet, plan, rng=rng)
        paging = paging_load(plan_pages(fleet, plan), self._cell.max_paging_records)
        table = plan.transmissions
        utilization = DownlinkScheduler().utilization(
            table.frame, table.duration_frames, result.horizon_frames
        )
        return CampaignReport(
            plan=plan, result=result, paging=paging, utilization=utilization
        )


def _strip_left(
    fleet: Fleet, plan: MulticastPlan, left: Set[int]
) -> Tuple[Fleet, MulticastPlan]:
    """Remove departed devices from a working fleet/plan pair.

    Revisions already dropped the leavers' directives; what remains is
    compacting the fleet and remapping the surviving device indices.
    No-op (identity) when nothing left.
    """
    if not left:
        return fleet, plan
    keep = np.delete(np.arange(len(fleet)), sorted(left))
    device_map = np.full(len(fleet), -1, dtype=np.int64)
    device_map[keep] = np.arange(len(keep), dtype=np.int64)
    columns = replace(plan.columns, device=device_map[plan.columns.device])
    return fleet.subset(keep), replace(plan, directives=columns)
