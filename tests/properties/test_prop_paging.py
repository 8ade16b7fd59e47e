"""Property: the whole-array paging report equals the scalar packer
and the live arbiter.

A campaign's paging report is :func:`paging_load` over the
:func:`~repro.core.plan.plan_pages` table; ``plan_oracle.scalar_pack``,
a per-record scan over the plan's directive objects, is its
specification. On random fleets over the whole DRX ladder with mixed
nB, for every mechanism and record caps of 1, 2 and 16, the two reports
must be equal: pages, notifications, occupied POs, the largest message
and every overflowed (frame, subframe, devices) tuple. Part of each
fleet is crowded onto a few UE_IDs that share their PO, so the small
caps overflow. The report overflows exactly when a fresh
:class:`~repro.enb.arbiter.CapacityArbiter`, fed the plan's windows as
the live service feeds them, refuses one of them for paging.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_oracle import scalar_pack
from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism, UnicastBaseline
from repro.core.base import PlanningContext
from repro.core.plan import plan_pages
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import NB
from repro.enb.arbiter import CapacityArbiter
from repro.enb.cell import CellConfig
from repro.enb.paging_channel import paging_load
from repro.errors import CapacityError
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.service import CampaignService
from repro.service.service import _pages_by_window
from repro.sim.rng import generator_for
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

MECHANISMS = (DrScMechanism(), DaScMechanism(), DrSiMechanism(), UnicastBaseline())
CAPS = (1, 2, 16)
CONTEXT = PlanningContext(payload_bytes=100_000)


@st.composite
def crowded_fleets(draw, max_devices=16):
    """Fleets over the full ladder and every nB (one per fleet).

    The first device sits on an eDRX cycle, which keeps the search
    horizon longer than the inactivity timer. Each other device is
    either crowded — one of four UE_IDs that agree mod 1024, on a cycle
    of at most 1024 frames, so crowded devices on one cycle and nB share
    a PO — or draws any IMSI and any ladder cycle.
    """
    n = draw(st.integers(min_value=2, max_value=max_devices))
    base = draw(st.integers(min_value=0, max_value=1023))
    nb = draw(st.sampled_from(list(NB)))
    short = [c for c in FULL_LADDER if int(c) <= 1024]
    devices = []
    for i in range(n):
        if i and draw(st.booleans()):
            imsi = 4096 * i + base + 1024 * draw(st.integers(0, 3))
            cycle = draw(st.sampled_from(short))
        else:
            imsi = 4096 * (i + 1) * 10**6 + draw(st.integers(0, 4095))
            edrx = [c for c in FULL_LADDER if int(c) >= 4096]
            cycle = draw(st.sampled_from(edrx if i == 0 else list(FULL_LADDER)))
        devices.append(NbIotDevice.build(imsi=imsi, cycle=cycle, nb=nb))
    return Fleet.from_devices(devices)


def _plan(fleet, mechanism, seed):
    return mechanism.plan(fleet, CONTEXT, np.random.default_rng(seed))


def _arbiter_refuses(fleet, plan, cap):
    """True when a fresh arbiter refuses some window of ``plan`` for
    paging, its windows presented in order as the live service does."""
    arbiter = CapacityArbiter(CellConfig(max_paging_records=cap))
    occasions, bounds = _pages_by_window(fleet, plan)
    for tx in plan.transmissions:
        decision = arbiter.admit(
            "campaign",
            tx.frame,
            tx.duration_frames,
            pages=occasions[bounds[tx.index] : bounds[tx.index + 1]],
        )
        if not decision.admitted:
            assert decision.reason == "paging"
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(
    crowded_fleets(),
    st.sampled_from(MECHANISMS),
    st.sampled_from(CAPS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fold_equals_scalar_pack(fleet, mechanism, cap, seed):
    plan = _plan(fleet, mechanism, seed)
    folded = paging_load(plan_pages(fleet, plan), cap)
    packed = scalar_pack(fleet, plan, cap)
    assert folded == packed
    assert folded.overflowed == packed.overflowed


@settings(max_examples=60, deadline=None)
@given(
    crowded_fleets(),
    st.sampled_from(MECHANISMS),
    st.sampled_from(CAPS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_report_overflows_iff_arbiter_refuses(fleet, mechanism, cap, seed):
    plan = _plan(fleet, mechanism, seed)
    report = paging_load(plan_pages(fleet, plan), cap)
    assert report.has_overflow == _arbiter_refuses(fleet, plan, cap)


@pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: m.name)
def test_crowded_po_overflows_a_small_cap(mechanism):
    # Eight devices on four UE_IDs that share one PO of a 1024-frame
    # cycle, beside an eDRX device.
    devices = [NbIotDevice.build(imsi=10**9 + 5, cycle=FULL_LADDER[-1])]
    devices += [
        NbIotDevice.build(imsi=4096 * (k + 1) + 7 + 1024 * (k % 4), cycle=DrxCycle(1024))
        for k in range(8)
    ]
    fleet = Fleet.from_devices(devices)
    plan = _plan(fleet, mechanism, seed=0)
    folded = paging_load(plan_pages(fleet, plan), 2)
    assert folded.has_overflow
    assert folded == scalar_pack(fleet, plan, 2)
    assert _arbiter_refuses(fleet, plan, 2)


def test_deliver_overflows_iff_serve_refuses():
    """A lone paper-default DR-SC campaign of 2x10^4 devices: ``deliver``
    reports overflow exactly when the live service refuses it for
    paging. Both plan it on the service's first campaign generator."""
    fleet = generate_fleet(20000, PAPER_DEFAULT_MIXTURE, generator_for(1))
    image = FirmwareImage(name="fw", version="1.0.0", size_bytes=100_000)
    first_campaign = np.random.SeedSequence(0).spawn(1)[0]
    report = OnDemandMulticastService(DrScMechanism()).deliver(
        fleet, image, rng=np.random.default_rng(first_campaign)
    )
    try:
        CampaignService(seed=0).submit(fleet, image, mechanism=DrScMechanism())
    except CapacityError as error:
        refused = "(paging)" in str(error)
    else:
        refused = False
    assert report.paging.has_overflow == refused
