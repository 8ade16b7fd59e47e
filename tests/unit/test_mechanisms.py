"""Unit tests for the grouping mechanisms (plan-level behaviour)."""

import numpy as np
import pytest
from paging_oracle import schedule_of

from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
    mechanism_by_name,
)
from repro.core.base import PlanningContext
from repro.core.plan import WakeMethod
from repro.errors import ConfigurationError


class TestDrSc:
    def test_plan_validates_and_covers(self, small_fleet, context, rng):
        plan = DrScMechanism().plan(small_fleet, context, rng)
        plan.validate(small_fleet)
        assert {d.device_index for d in plan.directives} == set(
            range(len(small_fleet))
        )

    def test_respects_cycles_and_standards(self, small_fleet, context, rng):
        plan = DrScMechanism().plan(small_fleet, context, rng)
        assert plan.standards_compliant
        assert plan.respects_preferred_drx
        assert all(
            d.method is WakeMethod.PAGED_IN_WINDOW for d in plan.directives
        )

    def test_transmissions_in_time_order(self, small_fleet, context, rng):
        plan = DrScMechanism().plan(small_fleet, context, rng)
        frames = [t.frame for t in plan.transmissions]
        assert frames == sorted(frames)

    def test_synchronised_fleet_needs_one_transmission(self, context, rng):
        from repro.devices.device import NbIotDevice
        from repro.devices.fleet import Fleet
        from repro.drx.cycles import DrxCycle

        # Same UE_ID modulo everything -> identical PO grids.
        fleet = Fleet.from_devices(
            [
                NbIotDevice.build(imsi=4096 * k + 7, cycle=DrxCycle(2048))
                for k in range(1, 6)
            ]
        )
        plan = DrScMechanism().plan(fleet, context, rng)
        assert plan.n_transmissions == 1

    def test_deterministic_given_seed(self, small_fleet, context):
        a = DrScMechanism().plan(small_fleet, context, np.random.default_rng(4))
        b = DrScMechanism().plan(small_fleet, context, np.random.default_rng(4))
        assert [t.frame for t in a.transmissions] == [
            t.frame for t in b.transmissions
        ]


class TestDaSc:
    def test_single_transmission(self, small_fleet, context, rng):
        plan = DaScMechanism().plan(small_fleet, context, rng)
        plan.validate(small_fleet)
        assert plan.n_transmissions == 1
        assert plan.standards_compliant
        assert not plan.respects_preferred_drx

    def test_transmission_at_two_max_drx(self, small_fleet, context, rng):
        plan = DaScMechanism().plan(small_fleet, context, rng)
        assert plan.transmissions[0].frame == 2 * int(small_fleet.max_cycle)

    def test_adapted_cycles_shorter_than_preferred(self, small_fleet, context, rng):
        plan = DaScMechanism().plan(small_fleet, context, rng)
        for directive in plan.directives:
            if directive.method is WakeMethod.DRX_ADAPTATION:
                device = small_fleet[directive.device_index]
                assert int(directive.adapted_cycle) < int(device.cycle)

    def test_adaptation_at_last_po_before_window(self, small_fleet, context, rng):
        """Sec. III-B: 'the adaptation happens in the last PO before t-TI'."""
        plan = DaScMechanism().plan(small_fleet, context, rng)
        t = plan.transmissions[0].frame
        window_lo = t - context.inactivity_timer_frames
        for directive in plan.directives:
            if directive.method is not WakeMethod.DRX_ADAPTATION:
                continue
            schedule = schedule_of(small_fleet[directive.device_index])
            assert directive.adaptation_page_frame == schedule.last_before(
                window_lo
            )

    def test_paper_strategy_never_shorter_than_naive(
        self, small_fleet, context, rng
    ):
        """Max-cycle selection implies cycles at least as long as the
        largest-within-TI fallback for every adapted device."""
        paper = DaScMechanism(AdaptationStrategy.PAPER).plan(
            small_fleet, context, np.random.default_rng(1)
        )
        naive = DaScMechanism(AdaptationStrategy.LARGEST_WITHIN_TI).plan(
            small_fleet, context, np.random.default_rng(1)
        )
        naive_by_device = {d.device_index: d for d in naive.directives}
        for directive in paper.directives:
            if directive.method is not WakeMethod.DRX_ADAPTATION:
                continue
            other = naive_by_device[directive.device_index]
            assert int(directive.adapted_cycle) >= int(other.adapted_cycle)

    def test_devices_with_window_po_not_adapted(self, small_fleet, context, rng):
        plan = DaScMechanism().plan(small_fleet, context, rng)
        t = plan.transmissions[0].frame
        ti = context.inactivity_timer_frames
        for directive in plan.directives:
            schedule = schedule_of(small_fleet[directive.device_index])
            has_window_po = schedule.has_in(t - ti, t)
            if has_window_po:
                assert directive.method is WakeMethod.PAGED_IN_WINDOW


class TestDrSi:
    def test_single_transmission_not_compliant(self, small_fleet, context, rng):
        plan = DrSiMechanism().plan(small_fleet, context, rng)
        plan.validate(small_fleet)
        assert plan.n_transmissions == 1
        assert not plan.standards_compliant
        assert plan.respects_preferred_drx

    def test_rng_required(self, small_fleet, context):
        with pytest.raises(ConfigurationError):
            DrSiMechanism().plan(small_fleet, context, None)

    def test_extended_pages_only_without_window_po(
        self, small_fleet, context, rng
    ):
        plan = DrSiMechanism().plan(small_fleet, context, rng)
        t = plan.transmissions[0].frame
        ti = context.inactivity_timer_frames
        for directive in plan.directives:
            schedule = schedule_of(small_fleet[directive.device_index])
            if directive.method is WakeMethod.EXTENDED_PAGE_TIMER:
                assert not schedule.has_in(t - ti, t)
            else:
                assert schedule.has_in(t - ti, t)

    def test_t322_wake_inside_window(self, small_fleet, context, rng):
        plan = DrSiMechanism().plan(small_fleet, context, rng)
        t = plan.transmissions[0].frame
        ti = context.inactivity_timer_frames
        for directive in plan.directives:
            if directive.method is WakeMethod.EXTENDED_PAGE_TIMER:
                assert t - ti <= directive.t322.expires_at_frame < t

    def test_wake_times_spread_randomly(self, small_fleet, context, rng):
        plan = DrSiMechanism().plan(small_fleet, context, rng)
        wakes = [
            d.t322.expires_at_frame
            for d in plan.directives
            if d.method is WakeMethod.EXTENDED_PAGE_TIMER
        ]
        if len(wakes) >= 5:
            assert len(set(wakes)) > 1  # not a synchronised stampede

    def test_extended_page_at_first_po(self, small_fleet, context, rng):
        plan = DrSiMechanism().plan(small_fleet, context, rng)
        for directive in plan.directives:
            if directive.method is WakeMethod.EXTENDED_PAGE_TIMER:
                schedule = schedule_of(small_fleet[directive.device_index])
                assert directive.page_frame == schedule.first_at_or_after(0)


class TestUnicast:
    def test_one_transmission_per_device(self, small_fleet, context, rng):
        plan = UnicastBaseline().plan(small_fleet, context, rng)
        plan.validate(small_fleet)
        assert plan.n_transmissions == len(small_fleet)
        assert all(t.group_size == 1 for t in plan.transmissions)

    def test_paged_at_first_po(self, small_fleet, context, rng):
        plan = UnicastBaseline().plan(small_fleet, context, rng)
        for directive in plan.directives:
            schedule = schedule_of(small_fleet[directive.device_index])
            assert directive.page_frame == schedule.first_at_or_after(0)

    def test_works_without_rng(self, small_fleet, context):
        plan = UnicastBaseline().plan(small_fleet, context, None)
        plan.validate(small_fleet)


class TestRegistry:
    def test_all_mechanisms_available(self):
        for name in ("dr-sc", "da-sc", "dr-si", "unicast"):
            assert mechanism_by_name(name).name == name

    def test_unknown_mechanism(self):
        with pytest.raises(ConfigurationError):
            mechanism_by_name("nope")
