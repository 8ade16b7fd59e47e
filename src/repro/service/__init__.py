"""The live campaign service: the batch pipeline's entry points on a clock.

The batch path (:class:`~repro.multicast.ondemand.OnDemandMulticastService`)
plans and executes one campaign in a single synchronous call. The live
service calls the same entry points itself — plan and validate, then
:func:`~repro.core.plan.revise_plan` on churn, then
:func:`~repro.multicast.ondemand.campaign_report` — and owns each
campaign's state in between: campaigns are submitted against a
simulated clock, several may be in flight in one cell at once
(arbitrated by :class:`~repro.enb.arbiter.CapacityArbiter`), devices
may join or leave mid-campaign, and completions are awaited with
``asyncio``::

    async with CampaignService(seed=7) as service:
        a = service.submit(fleet_a, image, mechanism=DrScMechanism())
        b = service.submit(fleet_b, image, mechanism=DrScMechanism())
        await service.advance_to(2048)
        service.join(a, extra_device)
        report_a, report_b = await asyncio.gather(
            service.result(a), service.result(b)
        )

Everything runs on the simulated clock — the asyncio layer only
structures *who waits on what*; the execution order of events is the
simulator's heap order, so scripted arrival sequences are bit-identical
across runs (per-campaign ``SeedSequence`` children supply the
randomness).
"""

from repro.service.service import CampaignHandle, CampaignService

__all__ = ["CampaignHandle", "CampaignService"]
