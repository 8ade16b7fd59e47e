"""Unit tests for a campaign's pipeline — plan, revise, complete — as
the live service drives it, its validate calls, and its paging records."""

import asyncio

import numpy as np
import pytest

from paging_oracle import pattern_of
from plan_oracle import scalar_pages
from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism
from repro.core.base import PlanningContext
from repro.core.plan import MulticastPlan, WakeMethod, plan_pages
from repro.devices.device import NbIotDevice
from repro.drx.cycles import DrxCycle
from repro.errors import PlanError
from repro.grouping.policies import CoverageStratifiedPolicy
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.service import CampaignService
from repro.service.service import _max_shift, _pages_by_window
from repro.sim.eventlog import compare_results
from repro.sim.executor import CampaignExecutor

IMAGE = FirmwareImage(name="fw", version="1.0.0", size_bytes=60_000)
CONTEXT = PlanningContext(payload_bytes=IMAGE.size_bytes)


def _joiner(imsi: int, seconds: float = 20.48) -> NbIotDevice:
    return NbIotDevice.build(imsi=imsi, cycle=DrxCycle.from_seconds(seconds))


def _live(fleet, churn=lambda service, handle: None, mechanism=DrScMechanism()):
    """One campaign on a fresh service: submit, apply ``churn`` at frame
    0, then await its report."""

    async def run():
        async with CampaignService(seed=7) as service:
            handle = service.submit(fleet, IMAGE, mechanism=mechanism)
            churn(service, handle)
            return await service.result(handle)

    return asyncio.run(run())


class TestLivePipeline:
    def test_submit_plans_without_executing(self, small_fleet, monkeypatch):
        executed = []
        execute = CampaignExecutor.execute

        def counting(self, fleet, plan, **kwargs):
            executed.append(plan)
            return execute(self, fleet, plan, **kwargs)

        monkeypatch.setattr(CampaignExecutor, "execute", counting)

        def churn(service, handle):
            assert executed == []

        report = _live(small_fleet, churn)
        assert executed == [report.plan]
        assert report.plan.payload_bytes == IMAGE.size_bytes

    @pytest.mark.parametrize("mechanism", [DrScMechanism(), DaScMechanism()])
    def test_churn_free_campaign_matches_deliver(self, small_fleet, mechanism):
        # deliver() consumes one generator across plan and execute; the
        # service does the same on the campaign's SeedSequence child.
        live = _live(small_fleet, mechanism=mechanism)
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        batch = OnDemandMulticastService(mechanism).deliver(small_fleet, IMAGE, rng=rng)
        assert batch.plan == live.plan
        assert compare_results(batch.result, live.result) == []
        assert batch.paging == live.paging
        assert batch.utilization == live.utilization

    def test_join_extends_working_fleet(self, small_fleet):
        def churn(service, handle):
            assert service.join(handle, _joiner(999_111_222)) == len(small_fleet)

        report = _live(small_fleet, churn)
        assert len(report.result) == len(small_fleet) + 1
        assert report.plan.directives[-1].device_index == len(small_fleet)

    def test_leave_and_complete_strips_device(self, small_fleet):
        report = _live(small_fleet, lambda service, handle: service.leave(handle, 3))
        # The final fleet is compacted: one device fewer, full coverage.
        assert len(report.plan.directives) == len(small_fleet) - 1
        assert len(report.result) == len(small_fleet) - 1
        assert not report.paging.has_overflow

    def test_double_leave_rejected(self, small_fleet):
        def churn(service, handle):
            service.leave(handle, 3)
            with pytest.raises(PlanError, match="already left"):
                service.leave(handle, 3)

        _live(small_fleet, churn)

    def test_join_then_leave_round_trip(self, small_fleet):
        def churn(service, handle):
            joined_index = service.join(handle, _joiner(999_333_444))
            service.leave(handle, joined_index)

        report = _live(small_fleet, churn)
        assert len(report.plan.directives) == len(small_fleet)


class TestValidateCalls:
    """A campaign is validated in full once when planned; completion
    validates again only a plan that replaced that one.

    ``validated`` lists the plans fully validated, in call order; a
    revision's own partial validation of its working plan is not listed.
    """

    @pytest.fixture
    def validated(self, monkeypatch):
        plans = []
        validate = MulticastPlan.validate

        def counting(plan, fleet, *, partial=False):
            if not partial:
                plans.append(plan)
            return validate(plan, fleet, partial=partial)

        monkeypatch.setattr(MulticastPlan, "validate", counting)
        return plans

    @pytest.mark.parametrize("mechanism", [DrScMechanism(), DaScMechanism()])
    def test_deliver_validates_once(self, small_fleet, rng, validated, mechanism):
        service = OnDemandMulticastService(mechanism)
        report = service.deliver(small_fleet, IMAGE, rng=rng)
        assert validated == [report.plan]

    def test_unrevised_plan_is_not_validated_again(self, small_fleet, validated):
        report = _live(small_fleet)
        assert validated == [report.plan]

    def test_revised_plan_is_validated_at_complete(self, small_fleet, validated):
        def churn(service, handle):
            service.join(handle, _joiner(999_111_222))

        report = _live(small_fleet, churn)
        assert len(validated) == 2
        assert validated[-1] is report.plan

    def test_plan_without_leavers_is_validated_at_complete(
        self, small_fleet, validated
    ):
        report = _live(small_fleet, lambda service, handle: service.leave(handle, 3))
        assert len(validated) == 2
        assert validated[-1] is report.plan
        assert len(report.plan.directives) == len(small_fleet) - 1


class TestColumnarPaging:
    """Paging records read from plan columns match a per-directive scan."""

    @pytest.mark.parametrize("mechanism", [DaScMechanism(), DrSiMechanism()])
    def test_page_table_matches_directive_scan(self, small_fleet, rng, mechanism):
        plan = mechanism.plan(small_fleet, CONTEXT, rng)
        table = plan_pages(small_fleet, plan)
        columns = (
            table.row,
            table.device,
            table.frame,
            table.subframe,
            table.notified,
        )
        rows = list(zip(*(column.tolist() for column in columns)))
        assert rows == scalar_pages(small_fleet, plan)

    @pytest.mark.parametrize(
        "mechanism",
        [DaScMechanism(), DrScMechanism(), DrScMechanism(CoverageStratifiedPolicy())],
    )
    def test_window_rows_match_directive_scan(self, small_fleet, rng, mechanism):
        plan = mechanism.plan(small_fleet, CONTEXT, rng)
        pages, bounds = _pages_by_window(small_fleet, plan)
        assert bounds[-1] == len(pages)
        for tx in plan.transmissions:
            window = plan.columns.transmission_rows(tx.index)
            members = [d for d in plan.directives if d.transmission_index == tx.index]
            occasions = []
            for d in members:
                subframe = pattern_of(small_fleet[d.device_index]).subframe
                occasions.append((d.page_frame, subframe))
                if d.method is WakeMethod.DRX_ADAPTATION:
                    occasions.append((d.adaptation_page_frame, subframe))
            assert pages[bounds[tx.index] : bounds[tx.index + 1]] == occasions
            start = tx.frame - plan.inactivity_timer_frames
            cap = max(0, min(d.connect_frame - start for d in members))
            assert _max_shift(plan, tx.frame, window) == cap
