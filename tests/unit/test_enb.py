"""Unit tests for the eNB substrate: cell, paging channel, scheduler, bearer."""

import pytest

from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import NB, pattern_for
from repro.enb.bearer import MulticastBearer
from repro.enb.cell import CellConfig
from repro.enb.enb import ENodeB
from repro.enb.paging_channel import PagingChannel
from repro.enb.scheduler import DownlinkScheduler, ScheduledTransmission
from repro.errors import CapacityError, ConfigurationError
from repro.phy.coverage import CoverageClass
from repro.rrc.messages import MulticastNotification


class TestCellConfig:
    def test_default_ti_in_commercial_range(self):
        """TI defaults inside the paper's 10-30 s commercial range."""
        assert 10.0 <= CellConfig().inactivity_timer_s <= 30.0

    def test_with_inactivity_timer(self):
        cell = CellConfig.with_inactivity_timer(10.24)
        assert cell.inactivity_timer_frames == 1024

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            CellConfig(inactivity_timer_frames=0)
        with pytest.raises(ConfigurationError):
            CellConfig(max_paging_records=0)


class TestPagingChannel:
    def test_pack_groups_by_occasion(self):
        channel = PagingChannel(max_records=4)
        report = channel.pack(
            [(100, 9, 1), (100, 9, 2), (200, 9, 3)],
        )
        assert report.occupied_occasions == 2
        assert report.total_pages == 3
        assert report.max_records_in_message == 2
        assert not report.has_overflow

    def test_same_frame_different_subframe_is_different_po(self):
        channel = PagingChannel(max_records=1)
        report = channel.pack([(100, 4, 1), (100, 9, 2)])
        assert report.occupied_occasions == 2
        assert not report.has_overflow

    def test_overflow_reported(self):
        channel = PagingChannel(max_records=2)
        report = channel.pack([(100, 9, u) for u in range(5)])
        assert report.has_overflow
        frame, subframe, spilled = report.overflowed[0]
        assert (frame, subframe) == (100, 9)
        assert len(spilled) == 3

    def test_strict_mode_raises(self):
        channel = PagingChannel(max_records=2, strict=True)
        with pytest.raises(CapacityError):
            channel.pack([(100, 9, u) for u in range(5)])

    def test_notifications_ride_along(self):
        channel = PagingChannel(max_records=4)
        notification = MulticastNotification(ue_id=9, frames_until_transmission=50)
        report = channel.pack([(100, 9, 1)], [(100, 9, notification)])
        assert report.messages[0].notified_ue_ids == {9}
        assert not report.messages[0].is_standards_compliant

    def test_invalid_capacity(self):
        with pytest.raises(CapacityError):
            PagingChannel(max_records=0)


class TestScheduler:
    def test_utilization(self):
        scheduler = DownlinkScheduler()
        report = scheduler.utilization(
            [
                ScheduledTransmission(start_frame=0, duration_frames=100, group_size=2),
                ScheduledTransmission(start_frame=200, duration_frames=100, group_size=1),
            ],
            horizon_frames=1000,
        )
        assert report.utilization == pytest.approx(0.2)
        assert report.overlapping_pairs == 0
        assert report.feasible_on_single_carrier

    def test_overlap_detection(self):
        scheduler = DownlinkScheduler()
        report = scheduler.utilization(
            [
                ScheduledTransmission(start_frame=0, duration_frames=100, group_size=1),
                ScheduledTransmission(start_frame=50, duration_frames=100, group_size=1),
                ScheduledTransmission(start_frame=90, duration_frames=100, group_size=1),
            ],
            horizon_frames=1000,
        )
        assert report.overlapping_pairs == 3
        assert not report.feasible_on_single_carrier

    def test_touching_intervals_do_not_overlap(self):
        scheduler = DownlinkScheduler()
        report = scheduler.utilization(
            [
                ScheduledTransmission(start_frame=0, duration_frames=100, group_size=1),
                ScheduledTransmission(start_frame=100, duration_frames=50, group_size=1),
            ],
            horizon_frames=200,
        )
        assert report.overlapping_pairs == 0

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            DownlinkScheduler().utilization([], horizon_frames=0)


class TestBearer:
    def test_for_group_uses_worst_device(self):
        bearer = MulticastBearer.for_group(
            [CoverageClass.NORMAL, CoverageClass.ROBUST]
        )
        assert bearer.rate_bps == 10_000.0
        assert bearer.group_size == 2

    def test_airtime(self):
        bearer = MulticastBearer(rate_bps=25_000.0, group_size=3)
        assert bearer.airtime_seconds(100_000) == pytest.approx(32.0)
        assert bearer.airtime_frames(100_000) == 3200

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            MulticastBearer(rate_bps=0, group_size=1)
        with pytest.raises(ConfigurationError):
            MulticastBearer(rate_bps=1000, group_size=0)


class TestENodeB:
    def test_pack_pages_uses_device_subframes(self):
        devices = [
            NbIotDevice.build(imsi=100 + i, cycle=DrxCycle(2048)) for i in range(3)
        ]
        fleet = Fleet(devices)
        enb = ENodeB()
        pages = [(i, int(fleet[i].pattern.phase)) for i in range(3)]
        report = enb.pack_pages(fleet, pages)
        assert report.total_pages == 3

    @pytest.mark.parametrize(
        "nb", [NB.QUARTER_T, NB.HALF_T, NB.ONE_T, NB.TWO_T, NB.FOUR_T, None]
    )
    def test_pack_pages_matches_per_device_patterns(self, nb):
        # Every ladder cycle (eDRX included), one nB per fleet or (None)
        # a different nB per device; a third of the devices notified.
        # Devices share a few frames, so their subframes decide which
        # paging message each record lands in.
        nbs = [NB.QUARTER_T, NB.HALF_T, NB.ONE_T, NB.TWO_T, NB.FOUR_T]
        devices = [
            NbIotDevice.build(
                imsi=1000 + 37 * i,
                cycle=FULL_LADDER[i % len(FULL_LADDER)],
                nb=nb if nb is not None else nbs[i % len(nbs)],
            )
            for i in range(40)
        ]
        fleet = Fleet(devices)
        pages = [(i, 5000 + i % 4) for i in range(len(devices)) if i % 3]
        notifications = [
            (i, 6000 + i % 2, 700 + i) for i in range(len(devices)) if not i % 3
        ]

        def subframe(i):
            device = devices[i]
            return pattern_for(device.drx.ue_id, device.cycle, device.drx.nb).subframe

        enb = ENodeB()
        reference = PagingChannel(max_records=enb.cell.max_paging_records).pack(
            [(frame, subframe(i), devices[i].identity.ue_id) for i, frame in pages],
            [
                (
                    frame,
                    subframe(i),
                    MulticastNotification(
                        ue_id=devices[i].identity.ue_id,
                        frames_until_transmission=remaining,
                    ),
                )
                for i, frame, remaining in notifications
            ],
        )
        assert enb.pack_pages(fleet, pages, notifications) == reference

    def test_pack_notifications(self):
        fleet = Fleet([NbIotDevice.build(imsi=55, cycle=DrxCycle(2048))])
        enb = ENodeB()
        report = enb.pack_pages(fleet, [], [(0, 100, 500)])
        message = report.messages[0]
        assert message.notified_ue_ids == {55 % 4096}
        assert message.mltc_transmission[0].frames_until_transmission == 500
