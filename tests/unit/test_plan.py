"""Unit tests for plan structures and validation."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from paging_oracle import schedule_of
from plan_oracle import from_directives

from repro.core.plan import (
    METHOD_CODE,
    DeviceDirective,
    MulticastPlan,
    PlanArrays,
    TransmissionTable,
    WakeMethod,
)
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.errors import CoverageError, PlanError
from repro.rrc.timers import T322Timer


@pytest.fixture
def pair_fleet() -> Fleet:
    return Fleet.from_devices(
        [
            NbIotDevice.build(imsi=101, cycle=DrxCycle.from_seconds(20.48)),
            NbIotDevice.build(imsi=202, cycle=DrxCycle.from_seconds(40.96)),
        ]
    )


def _plan_for(fleet: Fleet, directives, transmissions) -> MulticastPlan:
    """A test plan over ``directives`` (directive objects)."""
    return MulticastPlan(
        mechanism="test",
        standards_compliant=True,
        respects_preferred_drx=True,
        announce_frame=0,
        inactivity_timer_frames=2048,
        payload_bytes=100_000,
        transmissions=transmissions,
        directives=from_directives(directives),
    )


def _single_tx(frame: int, rate_bps: float = 25000) -> TransmissionTable:
    return TransmissionTable(frame=[frame], rate_bps=[rate_bps], duration_frames=[3200])


def _window_page(fleet: Fleet, device_index: int, tx_frame: int) -> int:
    schedule = schedule_of(fleet[device_index])
    page = schedule.last_at_or_before(tx_frame)
    assert page is not None and page >= tx_frame - 2048
    return page


class TestTransmissionTable:
    def test_rows_read_as_views_over_the_directives(self, pair_fleet):
        t = _window_plan(pair_fleet).transmissions[0]
        assert (t.index, t.frame, t.rate_bps, t.duration_frames) == (
            0, 5000, 25000.0, 3200,
        )
        assert t.end_frame == 8200
        assert t.group_size == 2
        assert t.device_indices.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"frame": [-1]},
            {"rate_bps": [0.0]},
            {"duration_frames": [0]},
            {"frame": [1, 2]},
        ],
    )
    def test_malformed_rows_rejected(self, overrides):
        row = {"frame": [0], "rate_bps": [1.0], "duration_frames": [1]}
        row.update(overrides)
        with pytest.raises(PlanError):
            TransmissionTable(**row)

    def test_transmission_serving_no_devices_detected(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        table = plan.transmissions
        idle = TransmissionTable(
            frame=np.repeat(table.frame, 2),
            rate_bps=np.repeat(table.rate_bps, 2),
            duration_frames=np.repeat(table.duration_frames, 2),
        )
        with pytest.raises(PlanError, match="transmission 1 serves no devices"):
            replace(plan, transmissions=idle).validate(pair_fleet)

    def test_plan_binds_its_table_to_its_directives(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        one = replace(plan.columns, transmission=[0, 1])
        split = replace(
            plan,
            transmissions=TransmissionTable([5000, 5000], [25000, 25000], [3200, 3200]),
            directives=one,
        )
        assert [t.device_indices.tolist() for t in split.transmissions] == [[0], [1]]
        # The original plan's views still read its own directives.
        assert plan.transmissions[0].device_indices.tolist() == [0, 1]
        assert pickle.loads(pickle.dumps(split)).transmissions[1].group_size == 1

    def test_equality_covers_who_each_row_serves(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        table = plan.transmissions
        same = _window_plan(pair_fleet).transmissions
        assert table == same and hash(table) == hash(same)
        swapped = replace(plan, directives=replace(plan.columns, device=[1, 0]))
        assert swapped.transmissions != table
        unbound = TransmissionTable(table.frame, table.rate_bps, table.duration_frames)
        assert unbound != table
        assert unbound == replace(table, directives=None)

    def test_unbound_table_has_no_members(self):
        row = TransmissionTable([0], [1.0], [1])[0]
        with pytest.raises(PlanError, match="not bound to a plan"):
            row.device_indices
        with pytest.raises(PlanError, match="not bound to a plan"):
            row.group_size


class TestDirective:
    """A directive is a plain view; its row is checked when it becomes
    plan columns."""

    def test_adaptation_requires_fields(self):
        with pytest.raises(PlanError):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.DRX_ADAPTATION, page_frame=10, connect_frame=10,
                )
            ])

    def test_non_adaptation_rejects_adaptation_fields(self):
        with pytest.raises(PlanError):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=10,
                    adapted_cycle=DrxCycle(2048),
                )
            ])

    def test_extended_requires_t322(self):
        with pytest.raises(PlanError):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.EXTENDED_PAGE_TIMER, page_frame=10,
                    connect_frame=100,
                )
            ])

    def test_t322_only_for_extended(self):
        with pytest.raises(PlanError):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=10,
                    t322=T322Timer(armed_at_frame=10, expires_at_frame=100),
                )
            ])

    def test_connect_before_page_rejected(self):
        with pytest.raises(PlanError):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=5,
                )
            ])

    def test_plan_takes_columns_only(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        with pytest.raises(PlanError, match="PlanArrays"):
            replace(plan, directives=tuple(plan.directives))


class TestPlanValidation:
    def test_valid_plan_passes(self, pair_fleet):
        tx_frame = 5000
        directives = tuple(
            DeviceDirective(
                device_index=i, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, i, tx_frame),
                connect_frame=_window_page(pair_fleet, i, tx_frame),
            )
            for i in range(2)
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            _single_tx(tx_frame),
        )
        plan.validate(pair_fleet)  # must not raise
        assert plan.n_transmissions == 1

    def test_uncovered_device_detected(self, pair_fleet):
        tx_frame = 5000
        page = _window_page(pair_fleet, 0, tx_frame)
        plan = _plan_for(
            pair_fleet,
            (
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.PAGED_IN_WINDOW,
                    page_frame=page, connect_frame=page,
                ),
            ),
            _single_tx(tx_frame),
        )
        with pytest.raises(CoverageError):
            plan.validate(pair_fleet)

    def test_page_not_on_po_grid_detected(self, pair_fleet):
        tx_frame = 5000
        page = _window_page(pair_fleet, 0, tx_frame)
        bad = page + 1  # definitely not a PO
        directives = (
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW, page_frame=bad,
                connect_frame=bad,
            ),
            DeviceDirective(
                device_index=1, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, 1, tx_frame),
                connect_frame=_window_page(pair_fleet, 1, tx_frame),
            ),
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            _single_tx(tx_frame),
        )
        with pytest.raises(PlanError, match="not a PO"):
            plan.validate(pair_fleet)

    def test_page_outside_window_detected(self, pair_fleet):
        tx_frame = 50000
        early_page = schedule_of(pair_fleet[0]).first_at_or_after(0)
        directives = (
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=early_page, connect_frame=early_page,
            ),
            DeviceDirective(
                device_index=1, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, 1, tx_frame),
                connect_frame=_window_page(pair_fleet, 1, tx_frame),
            ),
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            _single_tx(tx_frame),
        )
        with pytest.raises(PlanError, match="outside window"):
            plan.validate(pair_fleet)

    def test_directive_for(self, pair_fleet):
        tx_frame = 5000
        directives = tuple(
            DeviceDirective(
                device_index=i, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, i, tx_frame),
                connect_frame=_window_page(pair_fleet, i, tx_frame),
            )
            for i in range(2)
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            _single_tx(tx_frame),
        )
        assert plan.directive_for(1).device_index == 1
        with pytest.raises(PlanError):
            plan.directive_for(7)


def _window_plan(fleet: Fleet, tx_frame: int = 5000, rate_bps: float = 25000):
    directives = tuple(
        DeviceDirective(
            device_index=i, transmission_index=0,
            method=WakeMethod.PAGED_IN_WINDOW,
            page_frame=_window_page(fleet, i, tx_frame),
            connect_frame=_window_page(fleet, i, tx_frame),
        )
        for i in range(len(fleet))
    )
    return _plan_for(
        fleet,
        directives,
        _single_tx(tx_frame, rate_bps),
    )


class TestBearerRate:
    def test_rate_above_slowest_member_detected(self, pair_fleet):
        # Both devices are in normal coverage (25 kbit/s): a bearer
        # faster than that cannot be decoded by the group (Sec. II-A).
        plan = _window_plan(pair_fleet, rate_bps=30000)
        with pytest.raises(PlanError, match="bearer rate"):
            plan.validate(pair_fleet)

    def test_rate_below_slowest_member_accepted(self, pair_fleet):
        # A frozen revised window keeps the (lower) rate it was sized
        # for when it had slower members.
        _window_plan(pair_fleet, rate_bps=10000).validate(pair_fleet)


class TestPlanArrays:
    def test_directives_round_trip_through_columns(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        assert plan.directives is plan.columns
        assert len(plan.directives) == 2
        objects = tuple(plan.directives)
        assert from_directives(objects) == plan.columns
        assert plan.directives[-1] == objects[1]
        assert plan.directives[:1] == objects[:1]
        assert plan.columns.method.tolist() == [
            METHOD_CODE[WakeMethod.PAGED_IN_WINDOW]
        ] * 2

    def test_columns_are_read_only(self, pair_fleet):
        columns = _window_plan(pair_fleet).columns
        with pytest.raises(ValueError):
            columns.page_frame[0] = 0

    def test_plans_compare_and_pickle_by_value(self, pair_fleet):
        plan = _window_plan(pair_fleet)
        twin = _window_plan(pair_fleet)
        assert plan == twin and hash(plan) == hash(twin)
        assert pickle.loads(pickle.dumps(plan)) == plan
        moved = replace(
            plan.columns, connect_frame=plan.columns.connect_frame + 1
        )
        assert replace(plan, directives=moved) != plan

    def test_extended_page_timer_is_page_to_connect(self):
        columns = PlanArrays(
            device=[0], transmission=[0],
            method=METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER],
            page_frame=[10], connect_frame=[100],
        )
        directive = columns[0]
        assert directive.t322.armed_at_frame == 10
        assert directive.t322.expires_at_frame == 100

    @pytest.mark.parametrize(
        "overrides",
        [
            {"device": [-1]},
            {"page_frame": [-5], "connect_frame": [-5]},
            {"connect_frame": [5]},
            {"method": [7]},
            {"adaptation_page_frame": [3]},
            {"adapted_cycle": [2048]},
            {"method": [METHOD_CODE[WakeMethod.DRX_ADAPTATION]]},
            {
                "method": [METHOD_CODE[WakeMethod.DRX_ADAPTATION]],
                "adaptation_page_frame": [3],
                "adapted_cycle": [3000],
            },
            {
                "method": [METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER]],
                "connect_frame": [10],
            },
        ],
    )
    def test_malformed_rows_rejected(self, overrides):
        row = {
            "device": [0], "transmission": [0],
            "method": [METHOD_CODE[WakeMethod.PAGED_IN_WINDOW]],
            "page_frame": [10], "connect_frame": [10],
        }
        row.update(overrides)
        with pytest.raises(PlanError):
            PlanArrays(**row)

    def test_detached_t322_rejected(self):
        # T322 is armed at the extended page and expires at the connect
        # frame; a timer that disagrees is not representable.
        with pytest.raises(PlanError, match="T322"):
            from_directives([
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.EXTENDED_PAGE_TIMER, page_frame=10,
                    connect_frame=100,
                    t322=T322Timer(armed_at_frame=20, expires_at_frame=100),
                )
            ])

    def test_directive_for_uses_first_row(self):
        columns = PlanArrays(
            device=np.array([4, 2, 4]), transmission=[0, 1, 2],
            method=METHOD_CODE[WakeMethod.IMMEDIATE_PAGE],
            page_frame=[1, 2, 3], connect_frame=[1, 2, 3],
        )
        assert columns.row_of(4) == 0
        assert columns.row_of(2) == 1
        assert columns.row_of(3) == -1
        assert columns.row_of(99) == -1

    def test_first_rows_with_repeats_and_gaps(self):
        # Devices repeat out of order and skip indices; an empty plan
        # maps nothing.
        device = np.array([5, 1, 5, 1, 0, 7, 0])
        columns = PlanArrays(
            device=device, transmission=np.arange(device.size),
            method=METHOD_CODE[WakeMethod.IMMEDIATE_PAGE],
            page_frame=np.ones(device.size), connect_frame=np.ones(device.size),
        )
        assert columns._first_rows.tolist() == [4, 1, -1, -1, -1, 0, -1, 5]
        assert from_directives([])._first_rows.size == 0


def test_adaptation_inside_window_detected(pair_fleet):
    # The adaptation episode must happen before the window opens: an
    # adaptation PO inside the window is rejected even when every other
    # claim (POs on both grids, page in window and after it) holds.
    device = pair_fleet[0]
    adaptation = schedule_of(device).first_at_or_after(10_000)
    page = adaptation + 1024  # next PO of the nested 1024-frame grid
    grid = schedule_of(device, DrxCycle(1024))
    assert grid.is_po(page)
    plan = _plan_for(
        pair_fleet,
        (
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.DRX_ADAPTATION, page_frame=page,
                connect_frame=page, adaptation_page_frame=adaptation,
                adapted_cycle=DrxCycle(1024),
            ),
        ),
        _single_tx(adaptation + 1500),
    )
    with pytest.raises(PlanError, match="adaptation at"):
        plan.validate(pair_fleet, partial=True)


class TestReportInvariants:
    """Checks the paging and carrier reports once made per object, kept
    as whole-array checks on every plan."""

    def test_notification_at_its_transmission_detected(self, pair_fleet):
        # A DR-SI notification must arrive strictly before the multicast
        # it announces (a positive frames-until-transmission).
        page = schedule_of(pair_fleet[0]).first_at_or_after(5000)
        plan = _plan_for(
            pair_fleet,
            PlanArrays(
                device=[0], transmission=[0],
                method=METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER],
                page_frame=[page], connect_frame=[page + 10],
            ),
            _single_tx(page),
        )
        with pytest.raises(PlanError, match="not before its tx"):
            plan.validate(pair_fleet, partial=True)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("frame", -1, "frame must be >= 0"),
            ("duration_frames", 0, "duration must be >= 1 frame"),
        ],
    )
    def test_transmission_row_checks_hold_on_every_plan(
        self, pair_fleet, column, value, message
    ):
        # Every plan's table is built through the checked constructor,
        # including the arbiter's deferral shifts (a ``replace``).
        plan = _window_plan(pair_fleet)
        with pytest.raises(PlanError, match=message):
            replace(plan.transmissions, **{column: [value]})
