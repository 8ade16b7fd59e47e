"""The asyncio campaign service over the simulated clock.

Lifecycle of one campaign under the service:

1. **submit** — the campaign's plan is computed (consuming its own
   ``SeedSequence``-child generator exactly as the batch ``deliver``
   would), CAMPAIGN_SUBMIT is logged, and every transmission window is
   presented to the cell's :class:`~repro.enb.arbiter.CapacityArbiter`.
   Windows colliding with *other* campaigns' airtime are deferred
   (first-fit, logged as CAMPAIGN_DEFER) by shifting their frame; a
   window that cannot be placed raises :class:`CapacityError`.
2. **revise** — joins/leaves at the current simulated frame produce a
   :class:`~repro.core.plan.PlanRevision`; retired windows release
   their capacity and pending windows are re-admitted with their new
   shape. DEVICE_JOIN/DEVICE_LEAVE/CAMPAIGN_REVISE rows are logged.
3. **result** — awaiting a campaign pumps the simulator one event at a
   time until the campaign's completion milestone fires, then runs the
   batch completion path (validate, execute, then the paging and
   carrier reports) with the campaign's own generator.

Determinism: the simulator's heap order is the *only* execution order —
whichever coroutine happens to pump the engine, the same event runs
next — and no wall-clock time is consulted anywhere. A single-campaign
run without churn admits every window unshifted and therefore
reproduces ``OnDemandMulticastService.deliver`` bit-for-bit.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import GroupingMechanism
from repro.core.plan import MulticastPlan, plan_pages
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.enb.arbiter import CapacityArbiter
from repro.enb.cell import CellConfig
from repro.errors import CapacityError, SimulationError
from repro.multicast.ondemand import (
    CampaignReport,
    OnDemandMulticastService,
    PendingCampaign,
)
from repro.multicast.payload import FirmwareImage
from repro.rrc.procedures import ProcedureTimings
from repro.sim.engine import Simulator
from repro.sim.eventlog import EventLog, EventLogRecorder, LiveMetrics, live_metrics
from repro.sim.events import Event, EventKind
from repro.timebase import frames_to_seconds

#: Completion milestones run before sentinel ticks at the same instant.
_PRIORITY_COMPLETE = 5
_PRIORITY_TICK = 10


@dataclass(frozen=True)
class CampaignHandle:
    """Opaque reference to a submitted campaign."""

    id: int
    name: str


@dataclass
class _LiveCampaign:
    """Service-side state of one in-flight campaign."""

    handle: CampaignHandle
    inner: OnDemandMulticastService
    pending: PendingCampaign
    rng: np.random.Generator
    tokens: Dict[int, int] = field(default_factory=dict)
    completion_handle: Optional[int] = None
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
        self._sim = Simulator()
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
        return int(round(self._sim.now * 100.0))

    async def advance_to(self, frame: int) -> None:
        """Pump the simulator until the clock reaches ``frame``.

        Milestones on the way (campaign completions) execute in heap
        order; completions scheduled exactly at ``frame`` run before
        the clock hands control back.
        """
        target_s = frames_to_seconds(frame)
        if target_s <= self._sim.now:
            return
        fired = asyncio.Event()
        tick = Event(time_s=target_s, kind=EventKind.SERVICE_TICK)
        self._sim.schedule(
            tick, lambda _event: fired.set(), priority=_PRIORITY_TICK
        )
        await self._pump_until(fired.is_set)

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
        inner = OnDemandMulticastService(
            mechanism, cell=self._cell, timings=self._timings
        )
        pending = inner.submit(
            fleet, image, rng=rng, announce_frame=self.now_frame
        )
        campaign = _LiveCampaign(
            handle=handle, inner=inner, pending=pending, rng=rng
        )
        self._recorder.emit(
            EventKind.CAMPAIGN_SUBMIT,
            frame=self.now_frame,
            group=cid,
            a=float(len(fleet)),
            b=float(pending.plan.n_transmissions),
        )
        try:
            self._admit(campaign, range(pending.plan.n_transmissions))
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
        index = len(campaign.pending.fleet)
        self._revise(campaign, joined_devices=(device,), left=())
        return index

    def leave(self, handle: CampaignHandle, device_index: int) -> None:
        """Remove a working-fleet device from an in-flight campaign.

        Windows whose members all left are retired: their capacity is
        released and the events behind them are cancelled.
        """
        campaign = self._campaign(handle)
        self._revise(campaign, joined_devices=(), left=(device_index,))

    async def result(self, handle: CampaignHandle) -> CampaignReport:
        """Await a campaign's completion and return its report.

        Pumps the simulator (one event per scheduling round, yielding to
        other awaiters in between) until the campaign's completion
        milestone fires, then runs the batch completion path with the
        campaign's own generator.
        """
        campaign = self._campaign(handle)
        await self._pump_until(lambda: campaign.completed)
        if campaign.report is None:
            campaign.report = campaign.inner.complete(
                campaign.pending, rng=campaign.rng
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
            if self._sim.step() == 0:
                raise SimulationError(
                    "simulator ran dry before the awaited condition held"
                )
            await asyncio.sleep(0)

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
        now = self.now_frame
        joined_start = len(campaign.pending.fleet)
        revision = campaign.inner.revise(
            campaign.pending,
            joined_devices=joined_devices,
            left=left,
            now_frame=now,
        )
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
                if campaign.pending.plan.transmissions.frame[new_index] > now:
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
        frames = campaign.pending.plan.transmissions.frame
        order = sorted(tx_indices, key=lambda i: (frames[i], i))
        # A deferral replaces the plan's transmission table only: the
        # directive columns, their cached rows per window and the pages
        # read from them stay.
        occasions, bounds = _pages_by_window(
            campaign.pending.fleet, campaign.pending.plan
        )
        for index in order:
            plan = campaign.pending.plan
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
        plan = campaign.pending.plan
        frame = plan.transmissions.frame.copy()
        frame[index] += shift
        campaign.pending.plan = replace(
            plan, transmissions=replace(plan.transmissions, frame=frame)
        )

    def _schedule_completion(self, campaign: _LiveCampaign) -> None:
        """(Re)schedule the campaign's completion milestone at the end
        of its last window — cancellation plus rescheduling is what a
        plan revision that moves the campaign's end relies on."""
        end_frame = campaign.pending.plan.campaign_end_frame
        end_s = max(frames_to_seconds(end_frame), self._sim.now)
        if campaign.completion_handle is not None:
            self._sim.cancel(campaign.completion_handle)
        milestone = Event(
            time_s=end_s,
            kind=EventKind.CAMPAIGN_COMPLETE,
            payload={"campaign": campaign.handle.id},
        )

        def _complete(_event: Event) -> None:
            campaign.completed = True

        campaign.completion_handle = self._sim.schedule(
            milestone, _complete, priority=_PRIORITY_COMPLETE
        )


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
