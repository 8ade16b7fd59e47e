"""Event-driven plan replay — the executor's oracle.

Re-executes a :class:`~repro.core.plan.MulticastPlan` on the
discrete-event engine of ``engine_oracle.py``, charging exactly the
same durations as the arithmetic
:class:`~repro.sim.executor.CampaignExecutor`; the tests pin the two
together per device and per power state. Like the executor,
the replay can emit a columnar event log (pass ``recorder=``).

Devices are lazy: each keeps at most one pending PO_MONITOR event, so
the queue stays small even over multi-hour horizons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np
import pytest
from engine_oracle import Event, Simulator
from paging_oracle import PoSchedule, schedule_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.eventlog import EventLogRecorder

from repro.core.plan import DeviceDirective, MulticastPlan, WakeMethod
from repro.devices.fleet import Fleet
from repro.energy.ledger import STATE_ORDER, UptimeLedger
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import PowerState
from repro.errors import ConfigurationError, SimulationError
from repro.rrc.procedures import ProcedureTimings
from repro.sim.events import EventKind
from repro.sim.metrics import CampaignResult
from repro.timebase import frame_after_seconds, frames_to_seconds

#: TX_START must sort after CONNECTION_READY at the same instant.
_PRIORITY_READY = 0
_PRIORITY_TX = 1


class EventDrivenCampaign:
    """Replays one plan on the event engine."""

    def __init__(
        self,
        fleet: Fleet,
        plan: MulticastPlan,
        timings: ProcedureTimings = ProcedureTimings(),
        energy_profile: EnergyProfile = DEFAULT_PROFILE,
        trace: bool = False,
        recorder: Optional["EventLogRecorder"] = None,
    ) -> None:
        self._fleet = fleet
        self._plan = plan
        self._timings = timings
        self._profile = energy_profile
        self._sim = Simulator()
        #: With ``trace=True``, every event the replay executed, in order.
        self.trace: List[Event] = []
        self._tracing = trace
        self._devices: Dict[int, _DeviceActor] = {}
        self._gates: Dict[int, _TransmissionGate] = {}
        self._recorder = recorder

    def schedule(
        self, event: Event, callback: Callable[[Event], None], priority: int = 0
    ) -> int:
        """Queue ``event`` on the engine, recording it in :attr:`trace`
        when it runs if tracing is on."""
        if self._tracing:
            inner = callback

            def callback(event: Event) -> None:
                self.trace.append(event)
                inner(event)

        return self._sim.schedule(event, callback, priority)

    def run(
        self,
        horizon_frames: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> CampaignResult:
        """Execute the plan and return the campaign result."""
        for index in range(self._plan.n_transmissions):
            self._gates[index] = _TransmissionGate(self, index)
        for directive in self._plan.directives:
            actor = _DeviceActor(self, directive, rng)
            self._devices[directive.device_index] = actor
            self._gates[directive.transmission_index].members.append(actor)
        for actor in self._devices.values():
            actor.start()

        # Phase 1: run until every device finished its campaign. Idle PO
        # chains self-perpetuate, so each round is bounded; the bound
        # grows only while some device is still mid-campaign (realised
        # transmission starts can slip past the nominal frame by the
        # stragglers' connect time).
        bound_s = frames_to_seconds(self._plan.campaign_end_frame + 1)
        for _round in range(1000):
            self._sim.run(until_s=bound_s)
            if all(a.main_end_s > 0.0 for a in self._devices.values()):
                break
            bound_s += 60.0
        else:  # pragma: no cover - defensive
            raise SimulationError("campaign did not complete within bounds")
        end_s = max(actor.main_end_s for actor in self._devices.values())
        horizon = self._resolve_horizon(horizon_frames, end_s)
        horizon_s = frames_to_seconds(horizon)
        if self._recorder is not None:
            from repro.sim.eventlog import profile_meta

            airtime = self._timings.airtime
            self._recorder.set_meta(
                emitter="replay",
                energy_profile=profile_meta(self._profile),
                mechanism=self._plan.mechanism,
                n_devices=len(self._plan.directives),
                n_transmissions=self._plan.n_transmissions,
                payload_bytes=self._plan.payload_bytes,
                announce_frame=self._plan.announce_frame,
                horizon_frames=int(horizon),
                po_monitor_s=airtime.po_monitor_s,
                paging_message_s=airtime.paging_message_s,
                extended_paging_s=airtime.extended_paging_s,
                rrc_setup_s=airtime.rrc_setup_s,
                release_s=self._timings.release_s(),
                restore_s=self._timings.restore_s(),
            )

        # Phase 2: run the idle chains out to the horizon, stopping half
        # a frame short so the PO at the horizon boundary itself never
        # fires. PO charges are recorded as frames and filtered by the
        # horizon at finalisation, so a phase-1 bound that overshot the
        # horizon cannot overcharge.
        self._sim.run(until_s=horizon_s - 0.5 * frames_to_seconds(1))

        columns = self._plan.columns
        order = np.argsort(columns.device)
        actors = [self._devices[i] for i in columns.device[order].tolist()]
        for actor in actors:
            actor.finalise(horizon, horizon_s)
        seconds = np.array(
            [
                [actor.ledger.seconds_in(state) for state in STATE_ORDER]
                for actor in actors
            ],
            dtype=np.float64,
        ).reshape(len(actors), len(STATE_ORDER))
        return CampaignResult(
            device=columns.device[order],
            transmission=columns.transmission[order],
            ready_s=np.array([actor.ready_s for actor in actors], dtype=np.float64),
            wait_s=np.array([actor.wait_s for actor in actors], dtype=np.float64),
            updated_s=np.array(
                [actor.updated_s for actor in actors], dtype=np.float64
            ),
            seconds=seconds.T,
            actual_start_s=np.array(
                [self._gates[index].start_s for index in sorted(self._gates)],
                dtype=np.float64,
            ),
            horizon_frames=horizon,
            mechanism=self._plan.mechanism,
            energy_profile=self._profile,
        )

    @staticmethod
    def _resolve_horizon(horizon_frames: Optional[int], end_s: float) -> int:
        needed = frame_after_seconds(end_s) + 1
        if horizon_frames is None:
            return needed
        if horizon_frames < needed:
            raise SimulationError(
                f"horizon {horizon_frames} frames ends before the campaign "
                f"does ({needed} frames needed)"
            )
        return horizon_frames

    # Internal accessors used by the actors/gates -----------------------
    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def plan(self) -> MulticastPlan:
        return self._plan

    @property
    def fleet(self) -> Fleet:
        return self._fleet

    @property
    def timings(self) -> ProcedureTimings:
        return self._timings

    @property
    def recorder(self) -> Optional["EventLogRecorder"]:
        return self._recorder


class _TransmissionGate:
    """Starts a transmission once every group member is connected."""

    def __init__(self, campaign: EventDrivenCampaign, index: int) -> None:
        self._campaign = campaign
        self._index = index
        self.members: List[_DeviceActor] = []
        self._ready = 0
        self.start_s = 0.0

    def member_ready(self) -> None:
        self._ready += 1
        if self._ready < len(self.members):
            return
        transmission = self._campaign.plan.transmissions[self._index]
        nominal_s = frames_to_seconds(transmission.frame)
        start_s = max(nominal_s, self._campaign.sim.now)
        self.start_s = start_s
        self._campaign.schedule(
            Event(start_s, EventKind.TX_START, payload={"tx": self._index}),
            self._on_start,
            priority=_PRIORITY_TX,
        )

    def _on_start(self, event: Event) -> None:
        transmission = self._campaign.plan.transmissions[self._index]
        rx_s = self._campaign.plan.payload_bytes * 8.0 / transmission.rate_bps
        recorder = self._campaign.recorder
        if recorder is not None:
            recorder.emit(
                EventKind.TX_START,
                transmission.frame,
                group=self._index,
                a=self.start_s,
                b=transmission.rate_bps,
            )
        for member in self.members:
            member.transmission_started(self.start_s)
        self._campaign.schedule(
            Event(self.start_s + rx_s, EventKind.TX_END, payload={"tx": self._index}),
            self._on_end,
            priority=_PRIORITY_TX,
        )

    def _on_end(self, event: Event) -> None:
        recorder = self._campaign.recorder
        if recorder is not None:
            recorder.emit(
                EventKind.TX_END,
                frame_after_seconds(event.time_s),
                group=self._index,
                a=event.time_s,
            )
        for member in self.members:
            member.transmission_ended(event.time_s)


class _DeviceActor:
    """One device's state machine during the replay."""

    def __init__(
        self,
        campaign: EventDrivenCampaign,
        directive: DeviceDirective,
        rng: Optional[np.random.Generator],
    ) -> None:
        self._campaign = campaign
        self._directive = directive
        self._rng = rng
        self._device = campaign.fleet[directive.device_index]
        self._preferred = schedule_of(self._device)
        self._grid: PoSchedule = self._preferred
        self.seconds: Dict[PowerState, float] = dict.fromkeys(STATE_ORDER, 0.0)
        self.ledger: Optional[UptimeLedger] = None
        self.ready_s = 0.0
        self.wait_s = 0.0
        self.updated_s = 0.0
        self.main_end_s = 0.0
        self._monitor_scheduled = False
        self._suspended = False
        self._monitored_po_frames: List[int] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first PO at or after the announce frame."""
        first = self._grid.first_at_or_after(self._campaign.plan.announce_frame)
        self._schedule_monitor(first)

    def _schedule_monitor(self, frame: int) -> None:
        self._monitor_scheduled = True
        self._campaign.schedule(
            Event(
                frames_to_seconds(frame),
                EventKind.PO_MONITOR,
                device_index=self._directive.device_index,
                payload={"frame": frame},
            ),
            self._on_po,
            priority=_PRIORITY_READY,
        )

    # ------------------------------------------------------------------
    # PO handling
    # ------------------------------------------------------------------
    def _on_po(self, event: Event) -> None:
        self._monitor_scheduled = False
        if self._suspended:
            # A pending PO fired after the device connected (e.g. a
            # preferred PO landing between T322 expiry and the release):
            # the radio is in connected mode, nothing is monitored.
            return
        frame = event.payload["frame"]
        directive = self._directive
        airtime = self._campaign.timings.airtime

        if (
            directive.method is WakeMethod.DRX_ADAPTATION
            and frame == directive.adaptation_page_frame
        ):
            self._run_adaptation_episode(frame)
            return
        if frame == directive.page_frame:
            if directive.method is WakeMethod.EXTENDED_PAGE_TIMER:
                self._spend(PowerState.PAGING_RX, airtime.extended_paging_s)
                self._record(
                    EventKind.EXTENDED_PAGE, frame, a=airtime.extended_paging_s
                )
                # Priority -1: if the wake time collides with one of the
                # device's own POs, the timer wins and the PO is skipped
                # (the device is connecting, not monitoring).
                self._campaign.schedule(
                    Event(
                        frames_to_seconds(directive.connect_frame),
                        EventKind.T322_EXPIRY,
                        device_index=directive.device_index,
                    ),
                    self._on_t322,
                    priority=-1,
                )
                # Normal DRX continues while T322 runs.
                self._schedule_monitor(
                    self._grid.first_at_or_after(frame + 1)
                )
                return
            # Final page: receive it and connect.
            self._spend(PowerState.PAGING_RX, airtime.paging_message_s)
            self._record(EventKind.PAGE, frame, a=airtime.paging_message_s)
            self._suspended = True
            self._connect(frames_to_seconds(frame) + airtime.paging_message_s)
            return

        # An empty PO: light-sleep monitoring, carry on. Recorded as a
        # frame and charged at finalisation (horizon-filtered).
        self._monitored_po_frames.append(frame)
        self._schedule_monitor(self._grid.first_at_or_after(frame + 1))

    def _on_t322(self, event: Event) -> None:
        """T322 fired: stop idle monitoring and connect."""
        self._record(EventKind.T322_EXPIRY, self._directive.connect_frame)
        self._suspended = True
        self._connect(event.time_s)

    def _record(
        self, kind: EventKind, frame: int, a: float = 0.0, b: float = 0.0
    ) -> None:
        recorder = self._campaign.recorder
        if recorder is not None:
            recorder.emit(
                kind,
                frame,
                self._directive.device_index,
                self._directive.transmission_index,
                a=a,
                b=b,
            )

    # ------------------------------------------------------------------
    # Connection / adaptation
    # ------------------------------------------------------------------
    def _run_adaptation_episode(self, frame: int) -> None:
        """DA-SC: page + RA + setup + reconfiguration + release."""
        timings = self._campaign.timings
        airtime = timings.airtime
        self._spend(PowerState.PAGING_RX, airtime.paging_message_s)
        episode = timings.adaptation_episode_s(self._device.coverage, self._rng)
        ra = timings.random_access.base_duration_s(self._device.coverage)
        self._spend(PowerState.RANDOM_ACCESS, ra)
        self._spend(PowerState.RRC_SIGNALLING, episode - ra)
        self._record(EventKind.ADAPTATION_PAGE, frame, a=episode, b=ra)
        # Switch to the adapted grid; resume monitoring after the episode.
        assert self._directive.adapted_cycle is not None
        self._grid = schedule_of(self._device, self._directive.adapted_cycle)
        busy_end = frame_after_seconds(
            frames_to_seconds(frame) + airtime.paging_message_s + episode
        )
        self._schedule_monitor(self._grid.first_at_or_after(busy_end + 1))

    def _connect(self, at_s: float) -> None:
        """Random access + RRC setup, then notify the gate."""
        timings = self._campaign.timings
        ra = timings.random_access.perform(self._device.coverage, self._rng)
        self._spend(PowerState.RANDOM_ACCESS, ra.duration_s)
        self._spend(PowerState.RRC_SIGNALLING, timings.airtime.rrc_setup_s)
        self.ready_s = at_s + ra.duration_s + timings.airtime.rrc_setup_s
        self._record(
            EventKind.CONNECTION_READY,
            frame_after_seconds(self.ready_s),
            a=ra.duration_s,
            b=self.ready_s,
        )
        if timings.random_access.collision_probability > 0.0:
            self._record(
                EventKind.RA_ATTEMPT,
                frame_after_seconds(self.ready_s),
                a=float(ra.attempts),
                b=ra.duration_s,
            )
        self._campaign.schedule(
            Event(
                self.ready_s,
                EventKind.CONNECTION_READY,
                device_index=self._directive.device_index,
            ),
            self._on_ready,
            priority=_PRIORITY_READY,
        )

    def _on_ready(self, event: Event) -> None:
        self._campaign._gates[self._directive.transmission_index].member_ready()

    # ------------------------------------------------------------------
    # Transmission callbacks
    # ------------------------------------------------------------------
    def transmission_started(self, start_s: float) -> None:
        self.wait_s = max(0.0, start_s - self.ready_s)
        self._spend(PowerState.CONNECTED_WAIT, self.wait_s)

    def transmission_ended(self, end_s: float) -> None:
        timings = self._campaign.timings
        rx_s = end_s - (self.ready_s + self.wait_s)
        self._spend(PowerState.CONNECTED_RX, rx_s)
        self.updated_s = end_s
        tail = timings.release_s()
        if self._directive.method is WakeMethod.DRX_ADAPTATION:
            tail += timings.restore_s()
            self._grid = self._preferred  # cycle restored
        self._spend(PowerState.RRC_SIGNALLING, tail)
        self.main_end_s = end_s + tail
        self._record(
            EventKind.DEVICE_DONE,
            frame_after_seconds(self.main_end_s),
            a=self.wait_s,
            b=rx_s,
        )
        self._suspended = False
        self._schedule_monitor(
            self._grid.first_at_or_after(frame_after_seconds(self.main_end_s) + 1)
        )

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def finalise(self, horizon: int, horizon_s: float) -> None:
        airtime = self._campaign.timings.airtime
        monitored = sum(1 for f in self._monitored_po_frames if f < horizon)
        self._spend(PowerState.PO_MONITOR, monitored * airtime.po_monitor_s)
        self._record(
            EventKind.PO_MONITOR,
            self._campaign.plan.announce_frame,
            a=float(monitored),
        )
        totals = UptimeLedger(self.seconds).totals
        self._spend(
            PowerState.DEEP_SLEEP,
            max(0.0, horizon_s - totals.light_sleep_s - totals.connected_s),
        )
        self.ledger = UptimeLedger(self.seconds)

    def _spend(self, state: PowerState, seconds: float) -> None:
        """Accumulate ``seconds`` of time spent in ``state``."""
        if seconds < 0:
            raise ConfigurationError(
                f"cannot add negative duration {seconds} for {state}"
            )
        self.seconds[state] += seconds


def assert_matches_replay(result, replay, seconds_atol=1e-9):
    """Assert a live result agrees with the replay's, device by device:
    same horizon, rows and realised starts, times within 1e-9 s and every
    state's seconds within ``seconds_atol``."""
    assert replay.horizon_frames == result.horizon_frames
    assert len(replay) == len(result)
    np.testing.assert_allclose(
        replay.actual_start_s, result.actual_start_s, atol=1e-9
    )
    for a, b in zip(result, replay):
        assert a.device_index == b.device_index
        assert a.transmission_index == b.transmission_index
        for name in ("ready_s", "wait_s", "updated_s"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-9)
        for state in PowerState:
            assert b.ledger.seconds_in(state) == pytest.approx(
                a.ledger.seconds_in(state), abs=seconds_atol
            ), f"device {a.device_index} disagrees on {state}"
