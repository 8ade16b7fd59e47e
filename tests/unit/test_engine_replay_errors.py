"""Engine scheduling semantics and event-driven replay error paths."""

import numpy as np
import pytest
from engine_oracle import Event, Simulator
from executor_oracle import EventDrivenCampaign

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.errors import SimulationError
from repro.sim.eventlog import EventLogRecorder
from repro.sim.events import EventKind
from repro.timebase import frame_after_seconds
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _page(time_s, device=0):
    return Event(time_s, EventKind.PAGE, device_index=device)


class TestSimulatorScheduling:
    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(_page(1.0), lambda e: None)
        sim.run()
        assert sim.now == 1.0
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule(_page(0.5), lambda e: None)

    def test_schedule_tolerates_tiny_backward_jitter(self):
        sim = Simulator()
        sim.schedule(_page(1.0), lambda e: None)
        sim.run()
        sim.schedule(_page(1.0 - 1e-13), lambda e: None)
        assert sim.pending == 1

    def test_run_until_leaves_future_events_pending(self):
        seen = []
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(_page(t), lambda e: seen.append(e.time_s))
        executed = sim.run(until_s=2.0)
        assert executed == 2
        assert seen == [1.0, 2.0]
        assert sim.pending == 1
        # The clock stops at the last executed event, not at until_s,
        # so the remaining event is still schedulable territory.
        assert sim.now == 2.0
        assert sim.run() == 1
        assert seen == [1.0, 2.0, 3.0]

    def test_same_time_events_order_by_priority_then_seq(self):
        order = []
        sim = Simulator()
        sim.schedule(_page(5.0, device=1), lambda e: order.append("b"), priority=1)
        sim.schedule(_page(5.0, device=2), lambda e: order.append("a"), priority=0)
        sim.schedule(_page(5.0, device=3), lambda e: order.append("c"), priority=1)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_callbacks_may_reschedule(self):
        hops = []

        def hop(event):
            hops.append(event.time_s)
            if event.time_s < 3.0:
                sim.schedule(_page(event.time_s + 1.0), hop)

        sim = Simulator()
        sim.schedule(_page(1.0), hop)
        assert sim.run() == 3
        assert hops == [1.0, 2.0, 3.0]


@pytest.fixture()
def planned():
    rng = np.random.default_rng(11)
    fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
    plan = DrScMechanism().plan(
        fleet, PlanningContext(payload_bytes=40_000), rng
    )
    return fleet, plan


class TestReplayErrorPaths:
    def test_short_horizon_raises(self, planned):
        fleet, plan = planned
        baseline = EventDrivenCampaign(fleet, plan).run()
        with pytest.raises(SimulationError, match="ends before the campaign"):
            EventDrivenCampaign(fleet, plan).run(
                horizon_frames=baseline.horizon_frames - 10
            )

    def test_resolve_horizon_boundary(self):
        needed = frame_after_seconds(12.34) + 1
        assert EventDrivenCampaign._resolve_horizon(None, 12.34) == needed
        assert EventDrivenCampaign._resolve_horizon(needed, 12.34) == needed
        with pytest.raises(SimulationError, match=str(needed)):
            EventDrivenCampaign._resolve_horizon(needed - 1, 12.34)

    def test_explicit_horizon_extends_idle_accounting(self, planned):
        fleet, plan = planned
        tight = EventDrivenCampaign(fleet, plan).run()
        longer = EventDrivenCampaign(fleet, plan).run(
            horizon_frames=tight.horizon_frames + 512
        )
        assert longer.horizon_frames == tight.horizon_frames + 512
        assert longer.fleet.light_sleep_s >= tight.fleet.light_sleep_s

    def test_recorder_property_round_trips(self, planned):
        fleet, plan = planned
        recorder = EventLogRecorder()
        campaign = EventDrivenCampaign(fleet, plan, recorder=recorder)
        assert campaign.recorder is recorder
        campaign.run()
        log = recorder.finalize(cell=0)
        assert log.meta["emitter"] == "replay"
        assert log.n_events > 0

    def test_trace_recorded_by_the_replay(self, planned):
        fleet, plan = planned
        campaign = EventDrivenCampaign(fleet, plan, trace=True)
        campaign.run()
        trace = campaign.trace
        assert trace
        kinds = {event.kind for event in trace}
        assert EventKind.TX_START in kinds
        assert EventKind.CONNECTION_READY in kinds
        times = [event.time_s for event in trace]
        assert times == sorted(times)
