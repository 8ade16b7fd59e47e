"""Unit tests for the on-demand facade's staged pipeline and its
paging records."""

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
from repro.multicast import (
    FirmwareImage,
    OnDemandMulticastService,
    PendingCampaign,
)
from repro.service.service import _max_shift, _pages_by_window
from repro.sim.eventlog import compare_results

IMAGE = FirmwareImage(name="fw", version="1.0.0", size_bytes=60_000)
CONTEXT = PlanningContext(payload_bytes=IMAGE.size_bytes)


def _joiner(imsi: int, seconds: float = 20.48) -> NbIotDevice:
    return NbIotDevice.build(imsi=imsi, cycle=DrxCycle.from_seconds(seconds))


class TestStagedPipeline:
    def test_submit_plans_without_executing(self, small_fleet, rng):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        assert isinstance(pending, PendingCampaign)
        assert pending.fleet is small_fleet
        assert pending.plan.payload_bytes == IMAGE.size_bytes
        assert pending.active_members == tuple(range(len(small_fleet)))
        assert pending.revisions == []

    def test_submit_complete_matches_deliver(self, small_fleet):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        batch = service.deliver(small_fleet, IMAGE, rng=rng_a)
        staged = service.complete(
            service.submit(small_fleet, IMAGE, rng=rng_b), rng=rng_b
        )
        assert batch.plan == staged.plan
        assert compare_results(batch.result, staged.result) == []
        assert batch.paging.total_pages == staged.paging.total_pages
        assert batch.utilization == staged.utilization

    def test_submit_complete_matches_deliver_da_sc(self, small_fleet):
        service = OnDemandMulticastService(mechanism=DaScMechanism())
        batch = service.deliver(
            small_fleet, IMAGE, rng=np.random.default_rng(5)
        )
        staged = service.complete(
            service.submit(small_fleet, IMAGE, rng=np.random.default_rng(5)),
            rng=np.random.default_rng(5),
        )
        # deliver() consumes one generator across plan+execute; reusing a
        # fresh generator per stage is NOT equivalent in general — pass
        # the same generator through both stages for bit-identity.
        rng = np.random.default_rng(5)
        staged_same = service.complete(
            service.submit(small_fleet, IMAGE, rng=rng), rng=rng
        )
        assert batch.plan == staged_same.plan
        assert compare_results(batch.result, staged_same.result) == []

    def test_revise_join_extends_working_fleet(self, small_fleet, rng):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        revision = service.revise(
            pending, joined_devices=[_joiner(999_111_222)], now_frame=0
        )
        assert len(pending.fleet) == len(small_fleet) + 1
        assert revision.joined_directives[0].device_index == len(small_fleet)
        assert pending.plan is revision.revised
        assert pending.revisions == [revision]

    def test_revise_leave_and_complete_strips_device(self, small_fleet, rng):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        service.revise(pending, left=[3], now_frame=0)
        assert 3 in pending.left
        assert 3 not in pending.active_members
        report = service.complete(pending, rng=rng)
        # The final fleet is compacted: one device fewer, full coverage.
        assert len(report.plan.directives) == len(small_fleet) - 1
        assert len(report.result) == len(small_fleet) - 1
        assert not report.paging.has_overflow

    def test_double_leave_rejected(self, small_fleet, rng):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        service.revise(pending, left=[3], now_frame=0)
        with pytest.raises(PlanError):
            service.revise(pending, left=[3], now_frame=0)

    def test_join_then_leave_round_trip(self, small_fleet, rng):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        service.revise(
            pending, joined_devices=[_joiner(999_333_444)], now_frame=0
        )
        joined_index = len(small_fleet)
        service.revise(pending, left=[joined_index], now_frame=0)
        report = service.complete(pending, rng=rng)
        assert len(report.plan.directives) == len(small_fleet)


class TestValidateCalls:
    """``complete`` validates again only a plan replaced after ``submit``.

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

    def test_revised_plan_is_validated_at_complete(self, small_fleet, rng, validated):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        service.revise(pending, joined_devices=[_joiner(999_111_222)], now_frame=0)
        report = service.complete(pending, rng=rng)
        assert len(validated) == 2
        assert validated[-1] is report.plan

    def test_plan_without_leavers_is_validated_at_complete(
        self, small_fleet, rng, validated
    ):
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        pending = service.submit(small_fleet, IMAGE, rng=rng)
        service.revise(pending, left=[3], now_frame=0)
        report = service.complete(pending, rng=rng)
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
