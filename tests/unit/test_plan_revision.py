"""Unit tests for the plan-revision layer (live campaign churn).

A revision's joiners are its revised plan's last directive rows, in
join order; its retired windows are the base indices missing from its
``transmission_map``.
"""

import numpy as np
import pytest
from paging_oracle import schedule_of

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.core.plan import WakeMethod, revise_plan
from repro.devices.device import NbIotDevice
from repro.devices.fleet import COVERAGE_CODE, Fleet
from repro.drx.cycles import DrxCycle
from repro.enb.cell import CellConfig
from repro.errors import PlanError
from repro.phy.airtime import payload_airtime_frames
from repro.phy.coverage import CoverageClass


def _working_fleet(fleet: Fleet, *extra: NbIotDevice) -> Fleet:
    return Fleet.from_devices(list(fleet) + list(extra))


def _joiner(imsi: int, seconds: float = 20.48) -> NbIotDevice:
    return NbIotDevice.build(imsi=imsi, cycle=DrxCycle.from_seconds(seconds))


@pytest.fixture
def base_plan(small_fleet, context, rng):
    return DrScMechanism().plan(small_fleet, context, rng)


class TestNoop:
    def test_empty_churn_is_noop(self, base_plan, small_fleet, context):
        revision = revise_plan(
            base_plan, small_fleet, now_frame=0, context=context
        )
        assert revision.revised.transmissions == base_plan.transmissions
        assert revision.revised.directives == base_plan.directives
        assert revision.new_transmissions == ()
        assert revision.transmission_map == tuple(
            (t.index, t.index) for t in base_plan.transmissions
        )


class TestJoin:
    def test_joiner_paged_into_feasible_window(
        self, base_plan, small_fleet, context
    ):
        joiner = _joiner(imsi=999_000_111)
        fleet = _working_fleet(small_fleet, joiner)
        new_index = len(fleet) - 1
        revision = revise_plan(
            base_plan, fleet, joined=(new_index,), now_frame=0, context=context
        )
        assert len(revision.revised.directives) == len(base_plan.directives) + 1
        directive = revision.revised.directives[-1]
        assert directive.device_index == new_index
        assert directive.method is WakeMethod.PAGED_IN_WINDOW
        tx = revision.revised.transmissions[directive.transmission_index]
        assert new_index in tx.device_indices
        # The page is a real PO of the joiner, inside the TI-window,
        # and strictly in the future.
        assert schedule_of(joiner).is_po(directive.page_frame)
        assert directive.page_frame > 0
        ti = base_plan.inactivity_timer_frames
        assert tx.frame - ti <= directive.page_frame <= tx.frame
        revision.revised.validate(fleet)

    def test_join_resizes_target_window(self, base_plan, small_fleet, context):
        # A joiner with the slowest rate in the fleet cannot raise the
        # window's bearer rate; the window must track min(group rates).
        joiner = _joiner(imsi=999_000_222)
        fleet = _working_fleet(small_fleet, joiner)
        new_index = len(fleet) - 1
        revision = revise_plan(
            base_plan, fleet, joined=(new_index,), now_frame=0, context=context
        )
        tx_index = revision.revised.directives[-1].transmission_index
        tx = revision.revised.transmissions[tx_index]
        assert tx.rate_bps == fleet.group_rate_bps(tx.device_indices)
        assert tx.duration_frames == payload_airtime_frames(
            base_plan.payload_bytes, tx.rate_bps
        )

    def test_join_with_no_feasible_window_opens_new_one(
        self, tiny_fleet, context, rng
    ):
        base = DrScMechanism().plan(tiny_fleet, context, rng)
        last_frame = max(t.frame for t in base.transmissions)
        joiner = _joiner(imsi=999_000_333)
        fleet = _working_fleet(tiny_fleet, joiner)
        new_index = len(fleet) - 1
        # Revise after every existing window already transmitted: the
        # only option is a fresh window.
        revision = revise_plan(
            base,
            fleet,
            joined=(new_index,),
            now_frame=last_frame,
            context=context,
        )
        assert len(revision.new_transmissions) == 1
        tx = revision.revised.transmissions[revision.new_transmissions[0]]
        assert tx.device_indices.tolist() == [new_index]
        assert tx.frame > last_frame
        directive = revision.revised.directives[-1]
        assert directive.page_frame > last_frame
        revision.revised.validate(fleet, partial=True)

    def test_joiner_falls_back_to_its_latest_window_po(
        self, tiny_fleet, context, rng
    ):
        # The joiner's PO that leaves the connect slack is already past
        # at ``now_frame``, so its latest PO in the window pages it.
        base = DrScMechanism().plan(tiny_fleet, context, rng)
        tx_frame = int(base.transmissions[0].frame)  # the earliest window
        slack = int(
            context.connect_slack_table()[COVERAGE_CODE[CoverageClass.NORMAL]]
        )
        cycle = DrxCycle(256)
        joiner = next(
            device
            for device in (
                NbIotDevice.build(imsi=999_000_000 + i, cycle=cycle)
                for i in range(256)
            )
            if schedule_of(device).last_at_or_before(tx_frame) == tx_frame - 1
        )
        preferred = schedule_of(joiner).last_at_or_before(tx_frame - slack)
        assert 1 < slack < 256 and preferred == tx_frame - 1 - 256
        fleet = _working_fleet(tiny_fleet, joiner)
        new_index = len(fleet) - 1
        revision = revise_plan(
            base, fleet, joined=(new_index,), now_frame=preferred, context=context
        )
        (directive,) = revision.revised.directives[-1:]
        assert directive.page_frame == tx_frame - 1
        assert revision.new_transmissions == ()
        tx = revision.revised.transmissions[directive.transmission_index]
        assert tx.frame == tx_frame
        assert new_index in tx.device_indices
        revision.revised.validate(fleet, partial=True)

    def test_second_joiner_lands_in_the_first_joiners_fresh_window(
        self, tiny_fleet, context, rng
    ):
        base = DrScMechanism().plan(tiny_fleet, context, rng)
        last_frame = max(t.frame for t in base.transmissions)
        # One UE_ID (IMSIs 4096 apart) and one cycle: the joiners share
        # their POs, so the window the first one opens serves the second.
        first = _joiner(imsi=999_000_333)
        second = _joiner(imsi=999_000_333 + 4096)
        fleet = _working_fleet(tiny_fleet, first, second)
        joined = (len(fleet) - 2, len(fleet) - 1)
        revision = revise_plan(
            base, fleet, joined=joined, now_frame=last_frame, context=context
        )
        assert len(revision.new_transmissions) == 1
        tx = revision.revised.transmissions[revision.new_transmissions[0]]
        assert tx.device_indices.tolist() == list(joined)
        page = schedule_of(first).first_at_or_after(last_frame + 1)
        joiners = revision.revised.directives[-2:]
        assert [d.device_index for d in joiners] == list(joined)
        assert [d.page_frame for d in joiners] == [page, page]
        assert [d.transmission_index for d in joiners] == [tx.index, tx.index]
        revision.revised.validate(fleet, partial=True)

    def test_join_existing_member_rejected(
        self, base_plan, small_fleet, context
    ):
        with pytest.raises(PlanError):
            revise_plan(
                base_plan, small_fleet, joined=(0,), now_frame=0,
                context=context,
            )

    def test_join_outside_fleet_rejected(
        self, base_plan, small_fleet, context
    ):
        with pytest.raises(PlanError):
            revise_plan(
                base_plan,
                small_fleet,
                joined=(len(small_fleet),),
                now_frame=0,
                context=context,
            )


class TestLeave:
    def test_leave_retires_emptied_window(self, tiny_fleet, context, rng):
        base = DrScMechanism().plan(tiny_fleet, context, rng)
        # Empty one whole window by removing all its members.
        target = base.transmissions[-1]
        revision = revise_plan(
            base,
            tiny_fleet,
            left=tuple(target.device_indices),
            now_frame=0,
            context=context,
        )
        assert target.index not in dict(revision.transmission_map)
        assert len(revision.revised.transmissions) == (
            len(base.transmissions) - 1
        )
        left = set(target.device_indices)
        assert not any(
            d.device_index in left for d in revision.revised.directives
        )
        revision.revised.validate(tiny_fleet, partial=True)

    def test_leave_resizes_surviving_window(self, small_fleet, context, rng):
        base = DrScMechanism().plan(small_fleet, context, rng)
        # Pick a window with >= 2 members and remove exactly one.
        target = next(
            t for t in base.transmissions if len(t.device_indices) >= 2
        )
        leaver = target.device_indices[0]
        revision = revise_plan(
            base, small_fleet, left=(leaver,), now_frame=0, context=context
        )
        new_index = dict(revision.transmission_map)[target.index]
        tx = revision.revised.transmissions[new_index]
        assert leaver not in tx.device_indices
        assert tx.rate_bps == small_fleet.group_rate_bps(tx.device_indices)

    def test_leave_unknown_device_rejected(
        self, base_plan, small_fleet, context
    ):
        with pytest.raises(PlanError):
            revise_plan(
                base_plan,
                small_fleet,
                left=(len(small_fleet) + 5,),
                now_frame=0,
                context=context,
            )

    def test_frozen_window_not_resized(self, small_fleet, context, rng):
        base = DrScMechanism().plan(small_fleet, context, rng)
        target = next(
            t for t in base.transmissions if len(t.device_indices) >= 2
        )
        leaver = target.device_indices[0]
        # Revise *after* the target window transmitted: the realised
        # rate and duration must stay put even though a member left.
        revision = revise_plan(
            base,
            small_fleet,
            left=(leaver,),
            now_frame=target.frame,
            context=context,
        )
        new_index = dict(revision.transmission_map)[target.index]
        tx = revision.revised.transmissions[new_index]
        assert tx.rate_bps == target.rate_bps
        assert tx.duration_frames == target.duration_frames


class TestRenumbering:
    def test_time_order_and_map_consistency(self, small_fleet, context, rng):
        base = DrScMechanism().plan(small_fleet, context, rng)
        target = base.transmissions[0]
        revision = revise_plan(
            base,
            small_fleet,
            left=tuple(target.device_indices),
            now_frame=0,
            context=context,
        )
        frames = [t.frame for t in revision.revised.transmissions]
        assert frames == sorted(frames)
        for i, tx in enumerate(revision.revised.transmissions):
            assert tx.index == i
        remap = dict(revision.transmission_map)
        for base_index, new_index in remap.items():
            assert (
                base.transmissions[base_index].frame
                == revision.revised.transmissions[new_index].frame
            )
        # Every surviving directive points into the revised plan.
        for directive in revision.revised.directives:
            tx = revision.revised.transmissions[directive.transmission_index]
            assert directive.device_index in tx.device_indices
