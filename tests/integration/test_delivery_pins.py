"""Byte-for-byte pins of the batch and live delivery reports.

``demo`` prints one campaign's summary, ``serve`` one scripted live
session; both read the paging and carrier reports a completed campaign
carries. The pins cover the summary text of every mechanism at 2,000
paper-default devices (seed 2018), the ``serve`` table and recorded
event log for the default churn script and for a churn-free one, and
each mechanism's paging counts and carrier utilization. The ``serve``
table pins hold its lines without the last column's padding; every
mechanism has one churn script (DR-SC two campaigns, the others one,
since their single long windows leave no airtime for a second). An
in-process :class:`~repro.service.CampaignService` churn session per
mechanism pins the SHA-256 of its completed plan and result columns,
the path that strips the leavers before executing.

A change to the paging record rule moves these numbers on purpose: it
re-pins this file and shows the diff.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.registry import mechanism_by_name
from repro.devices.device import NbIotDevice
from repro.drx.cycles import DrxCycle
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.random_access import RandomAccessModel
from repro.service import CampaignService
from repro.sim.eventlog import RunLog
from repro.sim.rng import generator_for
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE, PAPER_DEFAULT_MIXTURE

DEMO = {
    "dr-sc": """\
mechanism           : dr-sc
standards compliant : True
payload             : 100KB
transmissions       : 373
campaign duration   : 5h49m
paging messages     : 2000 pages in 1714 occasions
paging overflow     : 0 records over capacity at 0 occasions
carrier airtime     : 11936.0s (56.94% of horizon)
fleet light sleep   : 6626.4s
fleet connected     : 81694.2s
fleet energy        : 12230.2 J
""",
    "da-sc": """\
mechanism           : da-sc
standards compliant : True
payload             : 100KB
transmissions       : 1
campaign duration   : 5h50m
paging messages     : 3358 pages in 2420 occasions
paging overflow     : 0 records over capacity at 0 occasions
carrier airtime     : 32.0s (0.15% of horizon)
fleet light sleep   : 8440.1s
fleet connected     : 86232.5s
fleet energy        : 12764.9 J
""",
    "dr-si": """\
mechanism           : dr-si
standards compliant : False
payload             : 100KB
transmissions       : 1
campaign duration   : 5h50m
paging messages     : 642 pages in 1732 occasions
paging overflow     : 0 records over capacity at 0 occasions
carrier airtime     : 32.0s (0.15% of horizon)
fleet light sleep   : 6651.4s
fleet connected     : 85351.1s
fleet energy        : 12339.1 J
""",
    "unicast": """\
mechanism           : unicast
standards compliant : True
payload             : 100KB
transmissions       : 2000
campaign duration   : 2h55m
paging messages     : 2000 pages in 1728 occasions
paging overflow     : 0 records over capacity at 0 occasions
carrier airtime     : 64000.0s (608.77% of horizon)
fleet light sleep   : 3343.1s
fleet connected     : 65020.0s
fleet energy        : 11382.6 J
""",
}

#: (total_pages, notifications, occupied_occasions,
#: max_records_in_message, overflow rows) and (total_airtime_s,
#: horizon_s, utilization, overlapping_pairs) of the demo campaign.
REPORTS = {
    "dr-sc": (
        (2000, 0, 1714, 5, 0),
        (11936.0, 20964.18, 0.5693521043990273, 149),
    ),
    "da-sc": (
        (3358, 0, 2420, 7, 0),
        (32.0, 21004.14, 0.001523509174857909, 0),
    ),
    "dr-si": (
        (642, 1358, 1732, 5, 0),
        (32.0, 21004.05, 0.00152351570292396, 0),
    ),
    "unicast": (
        (2000, 0, 1728, 4, 0),
        (64000.0, 10513.06, 6.087666198043196, 394857),
    ),
}

SERVE = {
    (): (
        """\
Live session: 2 campaigns x 12 devices, dr-sc, staggered 1024 frames
====================================================================
campaign    devices  tx  duration  pages  overflow
----------  -------  --  --------  -----  --------
campaign-0  13       7   5h09m     13     no
campaign-1  11       8   5h01m     11     no
note: churn: 1 joined, 1 left across 2 revisions; arbiter admitted 30 windows, deferred 0 (total shift 0 frames).
""",
        36,
        "0a2547f5a72e83e1aa308710d72eee4448a85a9cb3eff6c51c24b934dcf311c6",
    ),
    ("--joins", "0", "--leaves", "0", "--seed", "9"): (
        """\
Live session: 2 campaigns x 12 devices, dr-sc, staggered 1024 frames
====================================================================
campaign    devices  tx  duration  pages  overflow
----------  -------  --  --------  -----  --------
campaign-0  12       5   2h32m     12     no
campaign-1  12       7   4h45m     12     no
note: churn: 0 joined, 0 left across 0 revisions; arbiter admitted 12 windows, deferred 0 (total shift 0 frames).
""",
        14,
        "b395ad6dcbbbf9e25b8d8ff22730ffd8ebb0deae4dad34e03d64c696bbcc44d4",
    ),
    ("--mechanism", "da-sc", "--campaigns", "1", "--joins", "2", "--leaves", "2"): (
        """\
Live session: 1 campaigns x 12 devices, da-sc, staggered 1024 frames
====================================================================
campaign    devices  tx  duration  pages  overflow
----------  -------  --  --------  -----  --------
campaign-0  12       1   5h49m     20     no
note: churn: 2 joined, 2 left across 4 revisions; arbiter admitted 5 windows, deferred 0 (total shift 0 frames).
""",
        14,
        "86098433b299dc5cd0a3273fb09ff3380417da15ec869ef38105702f3c9f51a1",
    ),
    ("--mechanism", "dr-si", "--campaigns", "1", "--joins", "2", "--leaves", "2"): (
        """\
Live session: 1 campaigns x 12 devices, dr-si, staggered 1024 frames
====================================================================
campaign    devices  tx  duration  pages  overflow
----------  -------  --  --------  -----  --------
campaign-0  12       1   5h49m     4      no
note: churn: 2 joined, 2 left across 4 revisions; arbiter admitted 5 windows, deferred 0 (total shift 0 frames).
""",
        14,
        "86098433b299dc5cd0a3273fb09ff3380417da15ec869ef38105702f3c9f51a1",
    ),
    ("--mechanism", "unicast", "--campaigns", "1", "--joins", "2", "--leaves", "2"): (
        """\
Live session: 1 campaigns x 12 devices, unicast, staggered 1024 frames
======================================================================
campaign    devices  tx  duration  pages  overflow
----------  -------  --  --------  -----  --------
campaign-0  12       10  2h14m     12     no
note: churn: 2 joined, 2 left across 4 revisions; arbiter admitted 42 windows, deferred 0 (total shift 0 frames).
""",
        51,
        "6281fd1b0e743eb2715178ac9b3698591589b6541a9ad539fcf61ee468c41892",
    ),
}

MECHANISMS = tuple(DEMO)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_demo_summary(mechanism, capsys):
    assert main(["demo", "--mechanism", mechanism, "--devices", "2000"]) == 0
    assert capsys.readouterr().out == DEMO[mechanism]


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_paging_and_carrier_reports(mechanism):
    rng = generator_for(2018)
    fleet = generate_fleet(2000, PAPER_DEFAULT_MIXTURE, rng)
    image = FirmwareImage(name="demo-sensor", version="2.0.1", size_bytes=100_000)
    service = OnDemandMulticastService(mechanism_by_name(mechanism))
    report = service.deliver(fleet, image, rng=rng)
    paging, carrier = report.paging, report.utilization
    assert (
        (
            paging.total_pages,
            paging.notifications,
            paging.occupied_occasions,
            paging.max_records_in_message,
            len(paging.overflowed),
        ),
        (
            carrier.total_airtime_s,
            carrier.horizon_s,
            carrier.utilization,
            carrier.overlapping_pairs,
        ),
    ) == REPORTS[mechanism]


@pytest.mark.parametrize(
    "script", list(SERVE), ids=["churn", "no-churn", "da-sc", "dr-si", "unicast"]
)
def test_serve_table_and_event_log(script, capsys, tmp_path):
    record = tmp_path / "serve.npz"
    assert main(["serve", *script, "--record", str(record)]) == 0
    table, n_events, digest = SERVE[script]
    # The table pads its last column; the pins hold the lines stripped.
    out = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    assert out == table.splitlines() + [
        f"recorded live event log: {n_events} events -> {record}"
    ]
    events = RunLog.load(record).cells[0].events
    assert events.size == n_events
    assert hashlib.sha256(np.ascontiguousarray(events).tobytes()).hexdigest() == digest


#: SHA-256 of the completed campaign's plan and result columns in
#: :func:`_live_churn_report`'s session; see :func:`_report_digest`.
LIVE_SHA256 = {
    "dr-sc": "c3232f3d51468d0b52fd0fdb57d13a0db07e097b619f142c11aefadc5ad30de5",
    "da-sc": "fdb9aeb43be94a570a8e11bfd462e5c84a6c7e53fdb51f407548611dc8f29ff3",
    "dr-si": "3a3c912552e5cdb9c949ff28d5c798f592f7010dc8d7efd9814d7334effa549f",
    "unicast": "21af4db0970f72e621faee25efcefc49f8b2b7ab7eb0255e53ed6edef792bdbb",
}

PLAN_COLUMNS = (
    "device",
    "transmission",
    "method",
    "page_frame",
    "connect_frame",
    "adaptation_page_frame",
    "adapted_cycle",
)
RESULT_COLUMNS = (
    "device",
    "transmission",
    "ready_s",
    "wait_s",
    "updated_s",
    "seconds",
    "actual_start_s",
)


def _report_digest(report) -> str:
    """SHA-256 over the plan's directive columns and transmission table,
    then the result's columns and horizon."""
    digest = hashlib.sha256()
    columns = report.plan.columns
    for name in PLAN_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(columns, name), np.int64))
    table = report.plan.transmissions
    digest.update(np.ascontiguousarray(table.frame, np.int64))
    digest.update(np.ascontiguousarray(table.rate_bps, np.float64))
    digest.update(np.ascontiguousarray(table.duration_frames, np.int64))
    for name in RESULT_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(report.result, name)))
    digest.update(np.int64(report.result.horizon_frames))
    return digest.hexdigest()


async def _live_churn_report(mechanism: str):
    """One 12-device campaign; at frames 512 and 2048 a device joins and
    the next submitted device leaves. Random-access contention makes the
    execution draw from the campaign's generator too, so the digest
    also pins the draw order: plan, then execute."""
    fleet = generate_fleet(12, MODERATE_EDRX_MIXTURE, np.random.default_rng(1))
    image = FirmwareImage(name="fw", version="3.1.4", size_bytes=50_000)
    timings = ProcedureTimings(
        random_access=RandomAccessModel(collision_probability=0.3)
    )
    async with CampaignService(seed=7, timings=timings) as service:
        handle = service.submit(fleet, image, mechanism=mechanism_by_name(mechanism))
        for step, frame in enumerate((512, 2048)):
            await service.advance_to(frame)
            joiner = NbIotDevice.build(
                imsi=999_000_111 + 37 * step, cycle=DrxCycle.from_seconds(20.48)
            )
            service.join(handle, joiner)
            service.leave(handle, step)
        return await service.result(handle)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_live_churn_plan_and_result(mechanism):
    report = asyncio.run(_live_churn_report(mechanism))
    assert len(report.plan.directives) == 12
    assert _report_digest(report) == LIVE_SHA256[mechanism]
