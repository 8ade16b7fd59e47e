"""Property-based plan invariants across mechanism x policy combinations.

For every mechanism x grouping-policy pairing the plan must satisfy,
on random fleets and planning contexts (including non-zero announce
frames):

* the full :meth:`MulticastPlan.validate` contract;
* every fleet device gets exactly one directive;
* transmission indices are time-ordered (nominal frames non-decreasing
  with the index);
* the union of the transmission groups equals the fleet;
* no page frame (including DA-SC adaptation pages) precedes the
  announce frame.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism, UnicastBaseline
from repro.core.base import PlanningContext
from repro.core.registry import mechanism_by_name
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.enb.cell import CellConfig
from repro.errors import ConfigurationError
from repro.grouping import grouping_policy_by_name


@st.composite
def fleets(draw, max_devices=16, cycle_choices=(2048, 4096, 16384, 131072)):
    n = draw(st.integers(min_value=1, max_value=max_devices))
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    devices = [
        NbIotDevice.build(
            imsi=imsi, cycle=DrxCycle(draw(st.sampled_from(cycle_choices)))
        )
        for imsi in imsis
    ]
    return Fleet.from_devices(devices)


contexts = st.builds(
    PlanningContext,
    payload_bytes=st.sampled_from([100_000, 1_000_000]),
    cell=st.sampled_from(
        [
            CellConfig(inactivity_timer_frames=1024),
            CellConfig(inactivity_timer_frames=2048),
            CellConfig(inactivity_timer_frames=3072),
        ]
    ),
    announce_frame=st.sampled_from([0, 7, 1500]),
)

#: Every mechanism x policy pairing under test. The exact-cover policy
#: is exponential, so it rides on a smaller fleet strategy below.
COMBOS = [
    ("dr-sc", "greedy-cover"),
    ("dr-sc", "collision-aware"),
    ("dr-sc", "coverage-stratified"),
    ("dr-sc", "random"),
    ("da-sc", "single-group"),
    ("da-sc", "greedy-cover"),
    ("da-sc", "coverage-stratified"),
    ("dr-si", "single-group"),
    ("dr-si", "greedy-cover"),
    ("unicast", "greedy-cover"),  # the baseline ignores the policy
]

SMALL_COMBOS = [
    ("dr-sc", "exact-cover"),
    ("da-sc", "exact-cover"),
]


def assert_plan_invariants(plan, fleet, context):
    plan.validate(fleet)

    # Exactly one directive per fleet device.
    directed = sorted(d.device_index for d in plan.directives)
    assert directed == list(range(len(fleet)))

    # Transmission indices follow the campaign timeline.
    frames = [t.frame for t in plan.transmissions]
    assert frames == sorted(frames)
    assert [t.index for t in plan.transmissions] == list(range(len(frames)))

    # The union of the groups is the fleet (each device exactly once).
    grouped = sorted(i for t in plan.transmissions for i in t.device_indices)
    assert grouped == list(range(len(fleet)))

    # Nothing is paged before the content exists at the eNB.
    for directive in plan.directives:
        assert directive.page_frame >= context.announce_frame
        if directive.adaptation_page_frame is not None:
            assert directive.adaptation_page_frame >= context.announce_frame


@pytest.mark.parametrize("mechanism_name,policy_name", COMBOS)
@given(fleet=fleets(), context=contexts, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_plan_invariants(mechanism_name, policy_name, fleet, context, seed):
    mechanism = mechanism_by_name(
        mechanism_name, policy=grouping_policy_by_name(policy_name)
    )
    plan = mechanism.plan(fleet, context, np.random.default_rng(seed))
    assert_plan_invariants(plan, fleet, context)


@pytest.mark.parametrize("mechanism_name,policy_name", SMALL_COMBOS)
@given(
    fleet=fleets(max_devices=8, cycle_choices=(2048, 4096, 16384)),
    context=contexts,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_plan_invariants_exact_cover(
    mechanism_name, policy_name, fleet, context, seed
):
    mechanism = mechanism_by_name(
        mechanism_name, policy=grouping_policy_by_name(policy_name)
    )
    plan = mechanism.plan(fleet, context, np.random.default_rng(seed))
    assert_plan_invariants(plan, fleet, context)


@given(fleet=fleets(), context=contexts, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_greedy_cover_policy_is_bit_identical_to_default(fleet, context, seed):
    """DrSc with an explicit greedy-cover policy == DrSc default."""
    default = DrScMechanism().plan(fleet, context, np.random.default_rng(seed))
    explicit = DrScMechanism(
        policy=grouping_policy_by_name("greedy-cover")
    ).plan(fleet, context, np.random.default_rng(seed))
    assert default == explicit


@given(fleet=fleets(), context=contexts, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_single_group_policy_reproduces_paper_single_shot(
    fleet, context, seed
):
    """DA-SC/DR-SI defaults transmit once at t = announce + 2*maxDRX."""
    t = context.announce_frame + 2 * int(fleet.max_cycle)
    for mechanism in (DaScMechanism(), DrSiMechanism()):
        plan = mechanism.plan(fleet, context, np.random.default_rng(seed))
        assert plan.n_transmissions == 1
        assert plan.transmissions[0].frame == t
        assert plan.grouping == "single-group"


def test_dr_sc_rejects_policies_without_window_po_guarantee():
    with pytest.raises(ConfigurationError):
        DrScMechanism(policy=grouping_policy_by_name("single-group"))


@given(fleet=fleets(), context=contexts)
@settings(max_examples=10, deadline=None)
def test_unicast_ignores_policy(fleet, context):
    bare = UnicastBaseline().plan(fleet, context)
    with_policy = UnicastBaseline(
        policy=grouping_policy_by_name("greedy-cover")
    ).plan(fleet, context)
    assert bare.transmissions == with_policy.transmissions
    assert bare.grouping is None
