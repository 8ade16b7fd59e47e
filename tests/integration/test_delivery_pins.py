"""Byte-for-byte pins of the batch and live delivery reports.

``demo`` prints one campaign's summary, ``serve`` one scripted live
session; both read the paging and carrier reports a completed campaign
carries. The pins cover the summary text of every mechanism at 2,000
paper-default devices (seed 2018), the ``serve`` table and recorded
event log for the default churn script and for a churn-free one, and
each mechanism's paging counts and carrier utilization. The ``serve``
table pins hold its lines without the last column's padding.

A change to the paging record rule moves these numbers on purpose: it
re-pins this file and shows the diff.
"""

import hashlib

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.registry import mechanism_by_name
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.sim.eventlog import RunLog
from repro.sim.rng import generator_for
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

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


@pytest.mark.parametrize("script", list(SERVE), ids=["churn", "no-churn"])
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
