"""Property-based tests: every mechanism's plan is valid on random fleets."""

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
from repro.core.plan import WakeMethod
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.enb.cell import CellConfig


@st.composite
def fleets(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    cycle_choices = [2048, 4096, 16384, 131072, 1048576]
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    devices = [
        NbIotDevice.build(
            imsi=imsi, cycle=DrxCycle(draw(st.sampled_from(cycle_choices)))
        )
        for imsi in imsis
    ]
    return Fleet.from_devices(devices)


contexts = st.builds(
    PlanningContext,
    payload_bytes=st.sampled_from([100_000, 1_000_000]),
    cell=st.sampled_from(
        [
            CellConfig(inactivity_timer_frames=1024),
            CellConfig(inactivity_timer_frames=2048),
            CellConfig(inactivity_timer_frames=3072),
        ]
    ),
)


class TestPlansAlwaysValid:
    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dr_sc(self, fleet, context, seed):
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_da_sc_single_transmission(self, fleet, context, seed):
        plan = DaScMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)
        assert plan.n_transmissions == 1
        # Adapted cycles always divide the preferred ones (ladder nesting).
        for directive in plan.directives:
            if directive.method is WakeMethod.DRX_ADAPTATION:
                preferred = int(fleet[directive.device_index].cycle)
                assert preferred % int(directive.adapted_cycle) == 0

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dr_si_single_transmission(self, fleet, context, seed):
        plan = DrSiMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)
        assert plan.n_transmissions == 1

    @given(fleets(), contexts)
    @settings(max_examples=40, deadline=None)
    def test_unicast_n_transmissions(self, fleet, context):
        plan = UnicastBaseline().plan(fleet, context)
        plan.validate(fleet)
        assert plan.n_transmissions == len(fleet)

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_dr_sc_never_beats_optimal_singleton_bound(
        self, fleet, context, seed
    ):
        """1 <= transmissions <= n, always."""
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(seed))
        assert 1 <= plan.n_transmissions <= len(fleet)
