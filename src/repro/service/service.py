"""The asyncio campaign service over the simulated clock.

The service owns each campaign's state — its working fleet, current
plan, leavers, planning context and generator — and calls the pipeline's
entry points itself. Lifecycle of one campaign:

1. **submit** — the mechanism plans the campaign and the plan is
   validated (consuming the campaign's own ``SeedSequence``-child
   generator exactly as the batch ``deliver`` would), CAMPAIGN_SUBMIT
   is logged, and every transmission window is presented to the cell's
   :class:`~repro.enb.arbiter.CapacityArbiter`. Windows colliding with
   *other* campaigns' airtime are deferred (first-fit, logged as
   CAMPAIGN_DEFER) by shifting their frame; a window that cannot be
   placed raises :class:`CapacityError`.
2. **revise** — a join appends the device to the working fleet
   (:meth:`~repro.devices.fleet.Fleet.concatenate`), and
   :func:`~repro.core.plan.revise_plan` rebuilds the plan at the current
   simulated frame; windows missing from its ``transmission_map`` are
   retired and release their capacity, and pending windows are
   re-admitted with their new shape. DEVICE_JOIN/DEVICE_LEAVE/
   CAMPAIGN_REVISE rows are logged.
3. **result** — awaiting a campaign pumps the service's frame clock
   one completion milestone at a time until the campaign's own fires;
   the leavers are then stripped out, a plan that replaced the
   validated one is validated in full, and
   :func:`~repro.multicast.ondemand.campaign_report` executes it and
   folds the paging and carrier reports, as ``deliver`` does, with the
   campaign's own generator.

The clock is an integer frame count with a heap of ``(end frame,
sequence, campaign id)`` completion milestones. Determinism: the heap
order is the *only* execution order — whichever coroutine happens to
pump the clock, the same milestone fires next — and no wall-clock time
is consulted anywhere. A single-campaign run without churn admits every
window unshifted and therefore reproduces
``OnDemandMulticastService.deliver`` bit-for-bit.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import MulticastPlan, plan_pages, revise_plan
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.enb.arbiter import CapacityArbiter
from repro.enb.cell import CellConfig
from repro.errors import CapacityError, PlanError, SimulationError
from repro.multicast.ondemand import CampaignReport, campaign_report
from repro.multicast.payload import FirmwareImage
from repro.rrc.procedures import ProcedureTimings
from repro.sim.eventlog import EventLog, EventLogRecorder, LiveMetrics, live_metrics
from repro.sim.events import EventKind


@dataclass(frozen=True)
class CampaignHandle:
    """Opaque reference to a submitted campaign."""

    id: int
    name: str


@dataclass
class _LiveCampaign:
    """Service-side state of one in-flight campaign.

    The *working fleet* is append-only: joiners are appended, and
    leavers stay in it (recorded in ``left``) so no index shifts
    mid-campaign; completion strips them out. ``validated`` is the plan
    submission validated in full; completion validates again only a
    plan that has replaced it since (a revision or a deferral).
    """

    handle: CampaignHandle
    context: PlanningContext
    rng: np.random.Generator
    fleet: Fleet
    plan: MulticastPlan
    validated: MulticastPlan
    left: Set[int] = field(default_factory=set)
    tokens: Dict[int, int] = field(default_factory=dict)
    milestone: Optional[int] = None
    completed: bool = False
    report: Optional[CampaignReport] = None


class CampaignService:
    """Live multi-campaign delivery in one NB-IoT cell.

    Use as an async context manager; exiting awaits every in-flight
    campaign (``drain``). All state — clock, arbitration ledgers, the
    event log — is per-instance, so services are independent.
    """

    def __init__(
        self,
        *,
        cell: CellConfig = CellConfig(),
        timings: ProcedureTimings = ProcedureTimings(),
        seed: int = 0,
        max_defer_frames: int = 2048,
    ) -> None:
        """``seed`` roots the per-campaign ``SeedSequence`` children (in
        submission order); ``max_defer_frames`` caps how far the arbiter
        may push a window past its planned start."""
        self._cell = cell
        self._timings = timings
        self._now_frame = 0
        self._milestones: List[Tuple[int, int, int]] = []
        self._next_seq = 0
        self._arbiter = CapacityArbiter(cell, max_defer_frames=max_defer_frames)
        self._seed = int(seed)
        self._seed_seq = np.random.SeedSequence(self._seed)
        self._recorder = EventLogRecorder()
        self._recorder.set_meta(emitter="service", seed=self._seed)
        self._campaigns: Dict[int, _LiveCampaign] = {}
        self._next_id = 0

    async def __aenter__(self) -> "CampaignService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now_frame(self) -> int:
        """Current simulated frame."""
        return self._now_frame

    async def advance_to(self, frame: int) -> None:
        """Move the clock to ``frame``, firing the milestones on the way.

        Campaign completions due by ``frame`` fire in heap order, with a
        yield to other coroutines after each, and those exactly at
        ``frame`` fire before the clock settles there and yields once
        more. A ``frame`` at or before the current one is a no-op.
        """
        frame = int(frame)
        if frame <= self._now_frame:
            return
        while self._milestones and self._milestones[0][0] <= frame:
            if self._fire_next():
                await asyncio.sleep(0)
        # A result() awaited meanwhile may have pumped past ``frame``.
        self._now_frame = max(self._now_frame, frame)
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Campaign CRUD
    # ------------------------------------------------------------------
    def submit(
        self,
        fleet: Fleet,
        image: FirmwareImage,
        *,
        mechanism: GroupingMechanism,
        name: Optional[str] = None,
    ) -> CampaignHandle:
        """Plan and admit a campaign announced at the current frame.

        Raises :class:`~repro.errors.CapacityError` when some window
        cannot be admitted (paging overflow, or airtime conflicts no
        allowed deferral resolves); a failed submission leaves the
        shared ledgers untouched.
        """
        cid = self._next_id
        self._next_id += 1
        handle = CampaignHandle(id=cid, name=name or f"campaign-{cid}")
        rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        context = PlanningContext(
            payload_bytes=image.size_bytes,
            cell=self._cell,
            timings=self._timings,
            announce_frame=self.now_frame,
        )
        plan = mechanism.plan(fleet, context, rng)
        plan.validate(fleet)
        campaign = _LiveCampaign(
            handle=handle,
            context=context,
            rng=rng,
            fleet=fleet,
            plan=plan,
            validated=plan,
        )
        self._recorder.emit(
            EventKind.CAMPAIGN_SUBMIT,
            frame=self.now_frame,
            group=cid,
            a=float(len(fleet)),
            b=float(plan.n_transmissions),
        )
        try:
            self._admit(campaign, range(plan.n_transmissions))
        except CapacityError:
            for token in campaign.tokens.values():
                self._arbiter.release(token)
            raise
        self._campaigns[cid] = campaign
        self._schedule_completion(campaign)
        return handle

    def join(self, handle: CampaignHandle, device: NbIotDevice) -> int:
        """Add ``device`` to an in-flight campaign at the current frame.

        The device is appended to the campaign's working fleet and paged
        into the nearest feasible window (or a fresh one). Returns its
        working-fleet index. A device on another nB than the fleet's
        raises :class:`~repro.errors.FleetError`.
        """
        campaign = self._campaign(handle)
        index = len(campaign.fleet)
        self._revise(campaign, joined_devices=(device,), left=())
        return index

    def leave(self, handle: CampaignHandle, device_index: int) -> None:
        """Remove a working-fleet device from an in-flight campaign.

        Windows whose members all left are retired: their capacity is
        released, and the completion milestone moves with the plan's end.
        """
        campaign = self._campaign(handle)
        self._revise(campaign, joined_devices=(), left=(device_index,))

    async def result(self, handle: CampaignHandle) -> CampaignReport:
        """Await a campaign's completion and return its report.

        Pumps the clock (one milestone per scheduling round, yielding to
        other awaiters in between) until the campaign's completion
        milestone fires. The leavers are then stripped out, a plan that
        replaced the validated one is validated in full, and the plan is
        executed and reported as ``deliver`` would, with the campaign's
        own generator.
        """
        campaign = self._campaign(handle)
        await self._pump_until(lambda: campaign.completed)
        if campaign.report is None:
            fleet, plan = _strip_left(campaign.fleet, campaign.plan, campaign.left)
            if plan is not campaign.validated:
                plan.validate(fleet)
            campaign.report = campaign_report(
                fleet, plan, campaign.context, campaign.rng
            )
        return campaign.report

    async def drain(self) -> Dict[str, CampaignReport]:
        """Await every in-flight campaign; reports keyed by name."""
        reports = {}
        for campaign in list(self._campaigns.values()):
            reports[campaign.handle.name] = await self.result(campaign.handle)
        return reports

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def arbiter(self) -> CapacityArbiter:
        """The cell's capacity arbiter (shared ledgers, read it only)."""
        return self._arbiter

    def live_log(self) -> EventLog:
        """The service's event log so far (sealed copy)."""
        return self._recorder.finalize()

    def metrics(self) -> LiveMetrics:
        """Rollup of campaign activity recorded so far."""
        return live_metrics(self.live_log())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _campaign(self, handle: CampaignHandle) -> _LiveCampaign:
        if handle.id not in self._campaigns:
            raise SimulationError(f"unknown campaign {handle!r}")
        return self._campaigns[handle.id]

    async def _pump_until(self, predicate) -> None:
        while not predicate():
            if not self._milestones:
                raise SimulationError(
                    "clock ran dry before the awaited condition held"
                )
            if self._fire_next():
                await asyncio.sleep(0)

    def _fire_next(self) -> bool:
        """Pop the heap's head; if it is its campaign's live milestone,
        move the clock onto it and complete the campaign.

        Returns False for a stale entry (a milestone a revision
        replaced), which is dropped without moving the clock.
        """
        end_frame, seq, cid = heapq.heappop(self._milestones)
        campaign = self._campaigns[cid]
        if campaign.milestone != seq:
            return False
        self._now_frame = end_frame
        campaign.completed = True
        return True

    def _revise(
        self,
        campaign: _LiveCampaign,
        joined_devices: Sequence[NbIotDevice],
        left: Sequence[int],
    ) -> None:
        if campaign.completed:
            raise SimulationError(
                f"campaign {campaign.handle.name} already completed"
            )
        for index in left:
            if index in campaign.left:
                raise PlanError(f"device {index} already left the campaign")
        now = self.now_frame
        joined_start = len(campaign.fleet)
        if joined_devices:
            # Columnar append: the joiners' rows go onto the working
            # fleet's arrays; the fleet is never rebuilt device by device.
            working = Fleet.concatenate(
                [campaign.fleet, Fleet.from_devices(joined_devices)]
            )
        else:
            working = campaign.fleet
        revision = revise_plan(
            campaign.plan,
            working,
            joined=tuple(range(joined_start, len(working))),
            left=tuple(left),
            now_frame=now,
            context=campaign.context,
        )
        campaign.fleet = working
        campaign.plan = revision.revised
        campaign.left.update(int(i) for i in left)
        for offset in range(len(joined_devices)):
            self._recorder.emit(
                EventKind.DEVICE_JOIN,
                frame=now,
                device=joined_start + offset,
                group=campaign.handle.id,
            )
        for device_index in left:
            self._recorder.emit(
                EventKind.DEVICE_LEAVE,
                frame=now,
                device=int(device_index),
                group=campaign.handle.id,
            )
        self._recorder.emit(
            EventKind.CAMPAIGN_REVISE,
            frame=now,
            group=campaign.handle.id,
            a=float(len(joined_devices)),
            b=float(len(left)),
        )
        self._rearbitrate(campaign, revision)
        self._schedule_completion(campaign)

    def _rearbitrate(self, campaign: _LiveCampaign, revision) -> None:
        """Re-align the shared ledgers with a revised plan.

        Retired windows release their capacity outright. Surviving
        *pending* windows are released and re-admitted (their membership
        — hence pages, rate and duration — may have changed); frozen
        windows keep their original reservations, since that airtime
        and those pages were already spent on air.
        """
        now = self.now_frame
        remap = dict(revision.transmission_map)
        new_tokens: Dict[int, int] = {}
        readmit: List[int] = []
        for base_index, token in campaign.tokens.items():
            if base_index in remap:
                new_index = remap[base_index]
                if campaign.plan.transmissions.frame[new_index] > now:
                    self._arbiter.release(token)
                    readmit.append(new_index)
                else:
                    new_tokens[new_index] = token
            else:
                self._arbiter.release(token)
        campaign.tokens = new_tokens
        self._admit(
            campaign, sorted(readmit + list(revision.new_transmissions))
        )

    def _admit(
        self, campaign: _LiveCampaign, tx_indices: Sequence[int]
    ) -> None:
        """Present the given windows (by index, in frame order) to the
        arbiter, logging ADMIT/DEFER rows and applying deferral shifts
        to the campaign's plan."""
        frames = campaign.plan.transmissions.frame
        order = sorted(tx_indices, key=lambda i: (frames[i], i))
        # A deferral replaces the plan's transmission table only: the
        # directive columns, their cached rows per window and the pages
        # read from them stay.
        occasions, bounds = _pages_by_window(campaign.fleet, campaign.plan)
        for index in order:
            plan = campaign.plan
            tx = plan.transmissions[index]
            window_rows = plan.columns.transmission_rows(index)
            decision = self._arbiter.admit(
                campaign.handle.id,
                tx.frame,
                tx.duration_frames,
                pages=occasions[bounds[index] : bounds[index + 1]],
                max_shift_frames=_max_shift(plan, tx.frame, window_rows),
            )
            if not decision.admitted:
                raise CapacityError(
                    f"campaign {campaign.handle.name}: window {index} at "
                    f"frame {tx.frame} rejected ({decision.reason})"
                )
            campaign.tokens[index] = decision.token
            self._recorder.emit(
                EventKind.CAMPAIGN_ADMIT,
                frame=self.now_frame,
                group=campaign.handle.id,
                a=float(index),
                b=float(decision.shift_frames),
            )
            if decision.deferred:
                self._recorder.emit(
                    EventKind.CAMPAIGN_DEFER,
                    frame=self.now_frame,
                    group=campaign.handle.id,
                    a=float(index),
                    b=float(decision.shift_frames),
                )
                self._apply_shift(campaign, index, decision.shift_frames)

    def _apply_shift(
        self, campaign: _LiveCampaign, index: int, shift: int
    ) -> None:
        plan = campaign.plan
        frame = plan.transmissions.frame.copy()
        frame[index] += shift
        campaign.plan = replace(
            plan, transmissions=replace(plan.transmissions, frame=frame)
        )

    def _schedule_completion(self, campaign: _LiveCampaign) -> None:
        """(Re)schedule the campaign's completion milestone at the end
        of its last window (or now, if that is past). A revision that
        moves the campaign's end relies on this: the new entry replaces
        the campaign's live milestone, and the old one goes stale."""
        end_frame = max(campaign.plan.campaign_end_frame, self._now_frame)
        campaign.milestone = self._next_seq
        self._next_seq += 1
        heapq.heappush(
            self._milestones,
            (end_frame, campaign.milestone, campaign.handle.id),
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


def _pages_by_window(
    fleet: Fleet, plan: MulticastPlan
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """Each window's paging occasions, as ``(occasions, bounds)``.

    Window ``i`` pages at ``occasions[bounds[i]:bounds[i + 1]]``: the
    (frame, subframe) of every record :func:`~repro.core.plan.plan_pages`
    gives its directives — a page, a DA-SC adaptation page or a DR-SI
    notification — one entry per row, the rule the campaign report's
    :func:`~repro.enb.paging_channel.paging_load` counts by.
    """
    pages = plan_pages(fleet, plan)
    window = plan.columns.transmission[pages.row]
    order = np.argsort(window, kind="stable")
    bounds = np.searchsorted(window[order], np.arange(len(plan.transmissions) + 1))
    occasions = list(zip(pages.frame[order].tolist(), pages.subframe[order].tolist()))
    return occasions, bounds


def _max_shift(plan: MulticastPlan, frame: int, rows: np.ndarray) -> int:
    """Largest deferral keeping every member's wake inside the window.

    A device that connects at frame ``c`` stays awake until ``c + TI``;
    shifting the transmission at ``frame`` to ``frame + s`` keeps it
    reachable iff ``frame + s - TI <= c``. The window-wide cap is the
    minimum over the members' connect frames (``rows`` are the window's
    directive rows).
    """
    if not rows.size:
        return 0
    window_start = frame - plan.inactivity_timer_frames
    return max(0, int(plan.columns.connect_frame[rows].min()) - window_start)
