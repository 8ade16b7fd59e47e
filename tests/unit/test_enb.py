"""Unit tests for the eNB substrate: cell, paging channel, scheduler."""

import numpy as np
import pytest

from plan_oracle import scalar_pack, scalar_pages
from repro.core import DaScMechanism, DrSiMechanism
from repro.core.base import PlanningContext
from repro.core.plan import PageTable, plan_pages
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import NB
from repro.enb.cell import CellConfig
from repro.enb.paging_channel import PagingLoadReport, paging_load
from repro.enb.scheduler import utilization
from repro.errors import ConfigurationError


class TestCellConfig:
    def test_default_ti_in_commercial_range(self):
        """TI defaults inside the paper's 10-30 s commercial range."""
        assert 10.0 <= CellConfig().inactivity_timer_s <= 30.0

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            CellConfig(inactivity_timer_frames=0)
        with pytest.raises(ConfigurationError):
            CellConfig(max_paging_records=0)


def _table(entries):
    """A page table of (frame, subframe, device, notified) entries."""
    frame, subframe, device, notified = (np.array(c) for c in zip(*entries))
    row = np.arange(len(entries))
    return PageTable(row, device, frame, subframe, notified.astype(bool))


class TestPagingLoad:
    def test_groups_by_occasion(self):
        report = paging_load(
            _table([(100, 9, 0, False), (100, 9, 1, False), (200, 9, 2, False)]), 4
        )
        assert report.occupied_occasions == 2
        assert report.total_pages == 3
        assert report.max_records_in_message == 2
        assert not report.has_overflow

    def test_same_frame_different_subframe_is_different_po(self):
        report = paging_load(_table([(100, 4, 0, False), (100, 9, 1, False)]), 1)
        assert report.occupied_occasions == 2
        assert not report.has_overflow

    def test_overflow_spills_the_highest_device_indices(self):
        entries = [(100, 9, device, False) for device in (4, 0, 3, 1, 2)]
        report = paging_load(_table(entries), 2)
        assert report.overflowed == ((100, 9, (2, 3, 4)),)
        assert report.total_pages == 2
        assert report.max_records_in_message == 2

    def test_notifications_ride_along(self):
        report = paging_load(_table([(100, 9, 0, False), (100, 9, 1, True)]), 4)
        assert (report.total_pages, report.notifications) == (1, 1)
        assert report.occupied_occasions == 1
        assert report.max_records_in_message == 2

    def test_notifications_take_records_too(self):
        # A notification is an entry like a page: the lower device index
        # keeps the PO's only record, whichever kind it is.
        report = paging_load(_table([(100, 9, 5, False), (100, 9, 2, True)]), 1)
        assert (report.total_pages, report.notifications) == (0, 1)
        assert report.overflowed == ((100, 9, (5,)),)

    def test_empty_table(self):
        empty = PageTable(*(np.zeros(0, np.int64) for _ in range(4)), np.zeros(0, bool))
        assert paging_load(empty, 16) == PagingLoadReport(0, 0, 0, 0)


class TestScheduler:
    def test_utilization(self):
        report = utilization([0, 200], [100, 100], horizon_frames=1000)
        assert report.utilization == pytest.approx(0.2)
        assert report.overlapping_pairs == 0

    def test_overlap_detection(self):
        report = utilization([0, 50, 90], [100, 100, 100], horizon_frames=1000)
        assert report.overlapping_pairs == 3

    def test_touching_intervals_do_not_overlap(self):
        report = utilization([0, 100], [100, 50], horizon_frames=200)
        assert report.overlapping_pairs == 0

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            utilization([], [], horizon_frames=0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            utilization([0, 10], [5, 0], horizon_frames=100)


def _ladder_fleet(nb):
    # Every ladder cycle (eDRX included), on one nB per fleet.
    return Fleet.from_devices(
        [
            NbIotDevice.build(
                imsi=1000 + 37 * i,
                cycle=FULL_LADDER[i % len(FULL_LADDER)],
                nb=nb,
            )
            for i in range(40)
        ]
    )


class TestPageTable:
    """``plan_pages`` and the paging fold against a per-directive scan."""

    @pytest.mark.parametrize(
        "nb", [NB.QUARTER_T, NB.HALF_T, NB.ONE_T, NB.TWO_T, NB.FOUR_T]
    )
    @pytest.mark.parametrize("mechanism", [DaScMechanism(), DrSiMechanism()])
    def test_rows_match_per_device_patterns(self, nb, mechanism):
        fleet = _ladder_fleet(nb)
        plan = mechanism.plan(
            fleet, PlanningContext(payload_bytes=60_000), np.random.default_rng(4)
        )
        table = plan_pages(fleet, plan)
        rows = list(
            zip(
                *(
                    column.tolist()
                    for column in (
                        table.row,
                        table.device,
                        table.frame,
                        table.subframe,
                        table.notified,
                    )
                )
            )
        )
        assert rows == scalar_pages(fleet, plan)
        cap = CellConfig().max_paging_records
        assert paging_load(table, cap) == scalar_pack(fleet, plan, cap)

    def test_dr_si_notifications_are_counted_apart_from_records(self):
        fleet = _ladder_fleet(NB.ONE_T)
        plan = DrSiMechanism().plan(
            fleet, PlanningContext(payload_bytes=60_000), np.random.default_rng(4)
        )
        report = paging_load(plan_pages(fleet, plan), 16)
        reference = scalar_pack(fleet, plan, 16)
        assert report.notifications == reference.notifications > 0
        assert report.total_pages == reference.total_pages
        assert report.total_pages + report.notifications == len(fleet)
