"""Integration tests for the live campaign service.

Covers the acceptance contract of the service layer:

* two overlapping campaigns in one cell, with mid-campaign joins and
  leaves, run deterministically — the recorded event logs of two
  identical scripted runs are bit-identical — and finish with zero
  paging-record overflows;
* a single campaign without churn reproduces the batch
  ``OnDemandMulticastService.deliver`` results exactly;
* capacity rejections leave the shared ledgers untouched.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.core import DrScMechanism
from repro.devices.device import NbIotDevice
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB
from repro.errors import CapacityError, FleetError, SimulationError
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.service import CampaignService
from repro.sim.eventlog import compare_results
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

IMAGE = FirmwareImage(name="fw", version="3.1.4", size_bytes=50_000)


def _fleets():
    rng = np.random.default_rng(1)
    return (
        generate_fleet(12, MODERATE_EDRX_MIXTURE, rng),
        generate_fleet(8, MODERATE_EDRX_MIXTURE, rng),
    )


def _joiner() -> NbIotDevice:
    return NbIotDevice.build(
        imsi=999_000_111, cycle=DrxCycle.from_seconds(20.48)
    )


async def _scripted_churn_run(seed: int = 7):
    """The reference script: two campaigns, one join, one leave."""
    fleet_a, fleet_b = _fleets()
    async with CampaignService(seed=seed) as service:
        a = service.submit(
            fleet_a, IMAGE, mechanism=DrScMechanism(), name="alpha"
        )
        b = service.submit(
            fleet_b, IMAGE, mechanism=DrScMechanism(), name="beta"
        )
        await service.advance_to(2048)
        service.join(a, _joiner())
        service.leave(b, 0)
        report_a, report_b = await asyncio.gather(
            service.result(a), service.result(b)
        )
        return service.live_log(), service.metrics(), report_a, report_b


class TestScriptedChurn:
    def test_bit_identical_across_runs(self):
        log1, metrics1, *_ = asyncio.run(_scripted_churn_run())
        log2, metrics2, *_ = asyncio.run(_scripted_churn_run())
        assert log1.events.tobytes() == log2.events.tobytes()
        assert metrics1 == metrics2

    def test_zero_overflows_and_churn_applied(self):
        log, metrics, report_a, report_b = asyncio.run(_scripted_churn_run())
        assert not report_a.paging.has_overflow
        assert not report_b.paging.has_overflow
        # The joiner is part of alpha's final plan; beta lost a device.
        assert len(report_a.plan.directives) == 13
        assert len(report_b.plan.directives) == 7
        assert metrics.campaigns == 2
        assert metrics.devices_joined == 1
        assert metrics.devices_left == 1
        assert metrics.windows_admitted > 0
        counts = log.counts_by_kind()
        assert counts["campaign_submit"] == 2
        assert counts["device_join"] == 1
        assert counts["device_leave"] == 1
        assert counts["campaign_revise"] == 2

    def test_cross_campaign_deferrals_are_logged(self):
        log, metrics, *_ = asyncio.run(_scripted_churn_run())
        # The two fleets share PO grids, so at least one window of the
        # later campaign collides with the earlier one and is deferred.
        assert metrics.windows_deferred >= 1
        assert metrics.total_defer_frames > 0
        assert log.counts_by_kind()["campaign_defer"] == (
            metrics.windows_deferred
        )

    def test_no_airtime_conflicts_between_campaigns(self):
        _, _, report_a, report_b = asyncio.run(_scripted_churn_run())
        windows_a = [
            (t.frame, t.end_frame) for t in report_a.plan.transmissions
        ]
        windows_b = [
            (t.frame, t.end_frame) for t in report_b.plan.transmissions
        ]
        for sa, ea in windows_a:
            for sb, eb in windows_b:
                assert not (sa < eb and sb < ea), (
                    f"cross-campaign overlap: [{sa},{ea}) vs [{sb},{eb})"
                )


class TestDeliverEquivalence:
    def test_single_campaign_no_churn_matches_deliver(self):
        fleet_a, _ = _fleets()

        async def run():
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                return await service.result(handle)

        live = asyncio.run(run())
        batch_rng = np.random.default_rng(
            np.random.SeedSequence(7).spawn(1)[0]
        )
        batch = OnDemandMulticastService(DrScMechanism()).deliver(
            fleet_a, IMAGE, rng=batch_rng
        )
        assert live.plan == batch.plan
        assert compare_results(live.result, batch.result) == []
        assert live.paging.total_pages == batch.paging.total_pages
        assert live.utilization == batch.utilization


def _completed(service: CampaignService, handle) -> bool:
    """Whether the service has fired ``handle``'s completion milestone
    (read without pumping the clock)."""
    return service._campaigns[handle.id].completed


#: The single alpha campaign's last window ends at this frame.
_ALPHA_END = 222_645


class TestServiceClock:
    """The service's frame clock: when milestones fire and what
    ``advance_to`` and ``result`` leave on the clock."""

    def test_campaign_ending_at_the_target_frame_completes(self):
        fleet_a, _ = _fleets()

        async def run(frame):
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                await service.advance_to(frame)
                done = _completed(service, handle)
                report = await service.result(handle)
                return done, service.now_frame, report

        done, now, report = asyncio.run(run(_ALPHA_END))
        assert report.plan.campaign_end_frame == _ALPHA_END
        assert done and now == _ALPHA_END
        done, now, _ = asyncio.run(run(_ALPHA_END - 1))
        # One frame short: still in flight, and awaiting the result
        # moves the clock onto the milestone.
        assert not done and now == _ALPHA_END

    def test_leave_moves_the_end_earlier(self):
        fleet_a, _ = _fleets()
        # Device 11 is alone in the last window: its leaving retires it.
        new_end = 196_867 + 1_600

        async def run():
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                service.leave(handle, 11)
                await service.advance_to(new_end - 1)
                before = _completed(service, handle)
                await service.advance_to(new_end)
                after = _completed(service, handle)
                report = await service.result(handle)
                frame = service.now_frame
                # The retired milestone is stale: passing it fires nothing.
                await service.advance_to(_ALPHA_END + 1)
                return before, after, frame, report, service.metrics()

        before, after, frame, report, metrics = asyncio.run(run())
        assert not before and after
        assert frame == new_end == report.plan.campaign_end_frame
        assert metrics.campaigns == 1

    def test_join_moves_the_end_later(self):
        fleet_a, _ = _fleets()
        # A 175-minute cycle whose next PO lies past alpha's last window:
        # no window can serve it, so it gets a fresh, later one.
        late = NbIotDevice.build(
            imsi=999_000_102, cycle=DrxCycle.from_seconds(10485.76)
        )
        new_end = 231_064

        async def run():
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                service.join(handle, late)
                await service.advance_to(_ALPHA_END)
                at_old_end = _completed(service, handle)
                await service.advance_to(new_end - 1)
                before = _completed(service, handle)
                report = await service.result(handle)
                return at_old_end, before, service.now_frame, report

        at_old_end, before, frame, report = asyncio.run(run())
        assert not at_old_end and not before
        assert frame == new_end == report.plan.campaign_end_frame

    def test_advance_to_the_past_is_a_no_op(self):
        async def run():
            async with CampaignService(seed=7) as service:
                frames = []
                for target in (100, 50, 100, 0, 101):
                    await service.advance_to(target)
                    frames.append(service.now_frame)
                return frames

        assert asyncio.run(run()) == [100, 100, 100, 100, 101]

    def test_gathered_campaigns_keep_their_log_and_completion_order(self):
        fleet_a, fleet_b = _fleets()

        async def run():
            finished = []

            async def awaited(service, handle):
                report = await service.result(handle)
                finished.append((handle.name, service.now_frame))
                return report

            async with CampaignService(seed=7) as service:
                a = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism(), name="alpha"
                )
                b = service.submit(
                    fleet_b, IMAGE, mechanism=DrScMechanism(), name="beta"
                )
                await service.advance_to(2048)
                service.join(a, _joiner())
                service.leave(b, 0)
                await asyncio.gather(awaited(service, a), awaited(service, b))
                return service.live_log(), finished

        log, finished = asyncio.run(run())
        digest = hashlib.sha256(log.events.tobytes()).hexdigest()
        assert finished == [("beta", 190_184), ("alpha", 222_645)]
        assert digest == (
            "53ac01680f7abab8873c880ce1b4278368f8bf7da843845b7987aca2f03756be"
        )


class TestAdmissionControl:
    def test_saturated_cell_rejects_and_stays_clean(self):
        fleet_a, _ = _fleets()

        async def run():
            async with CampaignService(
                seed=7, max_defer_frames=0
            ) as service:
                first = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                windows_before = len(service.arbiter.carrier)
                # The same fleet plans the same windows: with deferral
                # disabled every window collides and submission fails.
                with pytest.raises(CapacityError):
                    service.submit(fleet_a, IMAGE, mechanism=DrScMechanism())
                # All-or-nothing: the failed submission released every
                # window and paging record it had provisionally taken.
                assert len(service.arbiter.carrier) == windows_before
                return await service.result(first)

        report = asyncio.run(run())
        assert not report.paging.has_overflow

    def test_revise_after_completion_rejected(self):
        fleet_a, _ = _fleets()

        async def run():
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                await service.result(handle)
                with pytest.raises(SimulationError):
                    service.join(handle, _joiner())

        asyncio.run(run())

    def test_join_on_another_nb_rejected(self):
        # nB is one cell parameter: a joiner configured for another
        # cell's nB cannot be paged on this one, so the join fails
        # loudly and leaves the campaign as it was.
        fleet_a, _ = _fleets()
        stranger = NbIotDevice.build(
            imsi=999_000_111, cycle=DrxCycle.from_seconds(20.48), nb=NB.HALF_T
        )

        async def run():
            async with CampaignService(seed=7) as service:
                handle = service.submit(
                    fleet_a, IMAGE, mechanism=DrScMechanism()
                )
                with pytest.raises(FleetError, match="different nB"):
                    service.join(handle, stranger)
                return service.metrics(), await service.result(handle)

        metrics, report = asyncio.run(run())
        assert metrics.devices_joined == 0
        assert len(report.plan.directives) == len(fleet_a)

    def test_unknown_campaign_rejected(self):
        async def run():
            async with CampaignService(seed=7) as service:
                from repro.service import CampaignHandle

                with pytest.raises(SimulationError):
                    service.leave(CampaignHandle(id=99, name="ghost"), 0)

        asyncio.run(run())
