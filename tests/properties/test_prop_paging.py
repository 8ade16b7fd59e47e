"""Property: the whole-array paging fold equals the scalar packer.

A campaign's paging report is :meth:`PagingChannel.fold` over the
:func:`~repro.core.plan.plan_pages` table; :meth:`PagingChannel.pack`,
fed one directive object at a time (``plan_oracle.scalar_pack``), is
its specification. On random fleets over the whole DRX ladder with
mixed nB, for every mechanism and record caps of 1, 2 and 16, the two
reports must be equal: records, notifications, occupied POs, the
largest message and every overflowed (frame, subframe, UE_IDs) tuple.
Part of each fleet is crowded onto a few UE_IDs that share their PO, so
the small caps overflow.
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
from repro.enb.paging_channel import PagingChannel

MECHANISMS = (DrScMechanism(), DaScMechanism(), DrSiMechanism(), UnicastBaseline())
CAPS = (1, 2, 16)
CONTEXT = PlanningContext(payload_bytes=100_000)


@st.composite
def crowded_fleets(draw, max_devices=16):
    """Fleets over the full ladder and every nB (fleet-wide or mixed).

    The first device sits on an eDRX cycle, which keeps the search
    horizon longer than the inactivity timer. Each other device is
    either crowded — one of four UE_IDs that agree mod 1024, on a cycle
    of at most 1024 frames, so crowded devices on one cycle and nB share
    a PO — or draws any IMSI and any ladder cycle.
    """
    n = draw(st.integers(min_value=2, max_value=max_devices))
    base = draw(st.integers(min_value=0, max_value=1023))
    fleet_nb = draw(st.one_of(st.none(), st.sampled_from(list(NB))))
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
        nb = fleet_nb if fleet_nb is not None else draw(st.sampled_from(list(NB)))
        devices.append(NbIotDevice.build(imsi=imsi, cycle=cycle, nb=nb))
    return Fleet(devices)


def _both(fleet, mechanism, cap, seed):
    plan = mechanism.plan(fleet, CONTEXT, np.random.default_rng(seed))
    channel = PagingChannel(max_records=cap)
    table = plan_pages(fleet, plan)
    folded = channel.fold(table.frame, table.subframe, table.ue_id, table.notified)
    return folded, scalar_pack(channel, fleet, plan)


@settings(max_examples=60, deadline=None)
@given(
    crowded_fleets(),
    st.sampled_from(MECHANISMS),
    st.sampled_from(CAPS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fold_equals_scalar_pack(fleet, mechanism, cap, seed):
    folded, packed = _both(fleet, mechanism, cap, seed)
    assert folded == packed
    assert folded.overflowed == packed.overflowed


@pytest.mark.parametrize("mechanism", MECHANISMS, ids=lambda m: m.name)
def test_crowded_po_overflows_a_small_cap(mechanism):
    # Eight devices on four UE_IDs that share one PO of a 1024-frame
    # cycle, beside an eDRX device.
    devices = [NbIotDevice.build(imsi=10**9 + 5, cycle=FULL_LADDER[-1])]
    devices += [
        NbIotDevice.build(imsi=4096 * (k + 1) + 7 + 1024 * (k % 4), cycle=DrxCycle(1024))
        for k in range(8)
    ]
    folded, packed = _both(Fleet(devices), mechanism, 2, seed=0)
    assert folded.has_overflow
    assert folded == packed
