"""Property-based tests on campaign execution invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.sim.executor import CampaignExecutor


@st.composite
def fleets(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    cycle_choices = [2048, 4096, 16384, 65536]
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**8),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return Fleet.from_devices(
        [
            NbIotDevice.build(
                imsi=imsi, cycle=DrxCycle(draw(st.sampled_from(cycle_choices)))
            )
            for imsi in imsis
        ]
    )


MECHANISMS = [DrScMechanism, DaScMechanism, DrSiMechanism, UnicastBaseline]


class TestExecutionInvariants:
    @given(fleets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_timeline_conservation(self, fleet, seed):
        """light sleep + connected + deep sleep == horizon, per device."""
        rng = np.random.default_rng(seed)
        context = PlanningContext(payload_bytes=100_000)
        executor = CampaignExecutor()
        for mechanism_cls in MECHANISMS:
            plan = mechanism_cls().plan(fleet, context, rng)
            result = executor.execute(fleet, plan)
            horizon_s = result.horizon_frames * 0.010
            for outcome in result:
                totals = outcome.totals
                full = totals.light_sleep_s + totals.connected_s + totals.sleep_s
                assert abs(full - horizon_s) < 1e-6
                assert outcome.wait_s >= 0.0
                assert outcome.updated_s <= horizon_s + 1e-9

    @given(fleets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_dr_sc_light_sleep_matches_unicast(self, fleet, seed):
        """The paper's Fig. 6(a) claim as a property: DR-SC monitors the
        same PO grid as unicast, so over a common horizon the light-sleep
        uptime may differ only by the POs masked during the (longer)
        connected stay — never upward, and bounded by the masked-PO count."""
        rng = np.random.default_rng(seed)
        context = PlanningContext(payload_bytes=100_000)
        executor = CampaignExecutor()
        plan = DrScMechanism().plan(fleet, context, rng)
        result = executor.execute(fleet, plan)
        baseline = executor.execute(
            fleet,
            UnicastBaseline().plan(fleet, context, rng),
            horizon_frames=result.horizon_frames,
        )
        mech = result.fleet.light_sleep_s
        base = baseline.fleet.light_sleep_s
        # DR-SC is connected at least as long as unicast, so it can only
        # mask *more* POs — light sleep never exceeds the baseline's.
        assert mech <= base + 1e-9
        # And the deficit is at most the POs maskable by the extra
        # connected stay (<= TI + connect slack per device).
        po_s = context.timings.airtime.po_monitor_s
        ti_s = context.inactivity_timer_frames * 0.010
        max_masked = sum(
            ((ti_s + 10.0) / device.cycle.seconds + 2) * po_s
            for device in fleet
        )
        assert base - mech <= max_masked + 1e-9

    @given(fleets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_single_transmission_mechanisms_update_simultaneously(
        self, fleet, seed
    ):
        """Every device served by the same transmission finishes at the
        same instant — the whole point of grouping."""
        rng = np.random.default_rng(seed)
        context = PlanningContext(payload_bytes=100_000)
        executor = CampaignExecutor()
        for mechanism_cls in (DaScMechanism, DrSiMechanism):
            plan = mechanism_cls().plan(fleet, context, rng)
            result = executor.execute(fleet, plan)
            finish_times = {o.updated_s for o in result}
            assert len(finish_times) == 1

    @given(fleets(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_connected_uptime_ordering(self, fleet, seed):
        """Unicast is the connected-uptime optimum (paper Sec. IV-A)."""
        rng = np.random.default_rng(seed)
        context = PlanningContext(payload_bytes=100_000)
        executor = CampaignExecutor()
        plans = {
            cls().name: cls().plan(fleet, context, rng) for cls in MECHANISMS
        }
        provisional = {
            name: executor.execute(fleet, plan) for name, plan in plans.items()
        }
        horizon = max(r.horizon_frames for r in provisional.values())
        results = {
            name: executor.execute(fleet, plan, horizon_frames=horizon)
            for name, plan in plans.items()
        }
        unicast = results["unicast"].fleet.connected_s
        for name, result in results.items():
            assert result.fleet.connected_s >= unicast - 1e-6
