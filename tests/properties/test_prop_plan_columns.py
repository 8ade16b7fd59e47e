"""Property tests: columnar planners and validate against the scalar oracle.

The mechanisms build their directive columns with array kernels over
the fleet's columns; ``plan_oracle`` keeps the per-device object loops
they replaced. On random fleets spanning every ladder cycle (eDRX up to
2^20 frames), every nB and every coverage class, each mechanism's plan
must equal the oracle's exactly — transmissions, every column, row
order — and consume the generator identically. Each transmission's
members, read from the directive columns, must be the oracle's member
tuple, also after random join/leave revisions and after the leavers are
stripped. The whole-array ``validate`` must agree with the
per-directive checks on valid plans and on single-field corruptions of
every kind.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_oracle import (
    from_directives,
    scalar_check_row,
    scalar_plan,
    scalar_validate,
)
from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.core.plan import PLAN_COLUMNS, PlanArrays, revise_plan
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import NB
from repro.enb.cell import CellConfig
from repro.errors import PlanError, ReproError
from repro.grouping.policies import CoverageStratifiedPolicy
from repro.grouping.policy import GroupingDecision, GroupingPolicy
from repro.phy.coverage import CoverageClass
from repro.service.service import _strip_left


@st.composite
def fleets(draw, max_devices=14):
    """Fleets over the full ladder, every nB (one per fleet) and
    every coverage class."""
    n = draw(st.integers(min_value=1, max_value=max_devices))
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**12),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    fleet_nb = draw(st.sampled_from(list(NB)))
    # The first device's cycle keeps the search horizon (2 * maxDRX)
    # longer than any TI below; the others range over the full ladder.
    cycles = [draw(st.sampled_from([c for c in FULL_LADDER if c >= 4096]))]
    cycles += [draw(st.sampled_from(list(FULL_LADDER))) for _ in imsis[1:]]
    devices = [
        NbIotDevice.build(
            imsi=imsi,
            cycle=cycle,
            coverage=draw(st.sampled_from(list(CoverageClass))),
            nb=fleet_nb,
        )
        for imsi, cycle in zip(imsis, cycles)
    ]
    return Fleet.from_devices(devices)


@st.composite
def joiner_devices(draw, imsi, nb):
    """One device joining a live campaign (``imsi`` keeps it unique in
    the working fleet): any ladder cycle and coverage class, on the
    cell's ``nb``."""
    return NbIotDevice.build(
        imsi=imsi,
        cycle=draw(st.sampled_from(list(FULL_LADDER))),
        coverage=draw(st.sampled_from(list(CoverageClass))),
        nb=nb,
    )


contexts = st.builds(
    PlanningContext,
    payload_bytes=st.sampled_from([100_000, 1_000_000]),
    cell=st.sampled_from(
        [
            CellConfig(inactivity_timer_frames=ti)
            for ti in (1024, 2048, 3072, 6144)
        ]
    ),
    announce_frame=st.sampled_from([0, 777, 50_000]),
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


class StaggeredGroups(GroupingPolicy):
    """Several single-shot groups whose windows need not hold POs.

    Members are dealt round-robin into ``k`` groups; group ``j``'s
    window ends ``j`` window-lengths after the paper's single-group
    ``t``. Groups come back in reverse time order, so planners must
    renumber them.
    """

    name = "staggered-test"
    guarantees_window_po = False

    def __init__(self, k: int) -> None:
        self.k = k

    def group(self, fleet, context, rng=None):
        ti = context.inactivity_timer_frames
        t = context.announce_frame + 2 * int(fleet.max_cycle)
        members = np.arange(len(fleet), dtype=np.int64)
        j = np.arange(min(self.k, len(fleet)))[::-1]
        return GroupingDecision.from_groups(
            t + j * ti - ti, t + j * ti, [members[i :: self.k] for i in j]
        )


mechanisms = st.sampled_from(
    [
        ("dr-sc", lambda: DrScMechanism()),
        ("dr-sc/strata", lambda: DrScMechanism(CoverageStratifiedPolicy())),
        ("da-sc/paper", lambda: DaScMechanism(AdaptationStrategy.PAPER)),
        (
            "da-sc/within-ti",
            lambda: DaScMechanism(AdaptationStrategy.LARGEST_WITHIN_TI),
        ),
        (
            "da-sc/staggered",
            lambda: DaScMechanism(
                AdaptationStrategy.LARGEST_WITHIN_TI, StaggeredGroups(3)
            ),
        ),
        ("dr-si", lambda: DrSiMechanism()),
        ("dr-si/staggered", lambda: DrSiMechanism(StaggeredGroups(3))),
        ("unicast", lambda: UnicastBaseline()),
    ]
)


def _both(make, fleet, context, seed):
    """(array plan, array rng, oracle plan, oracle members, oracle rng)
    on one seed."""
    rng_array = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    plan = make().plan(fleet, context, rng_array)
    oracle, members = scalar_plan(make(), fleet, context, rng_oracle)
    return plan, rng_array, oracle, members, rng_oracle


def _members(plan):
    """Each transmission's members as read through the views."""
    return [tuple(t.device_indices.tolist()) for t in plan.transmissions]


class TestPlannersMatchOracle:
    @given(fleets(), contexts, seeds, mechanisms)
    @settings(max_examples=150, deadline=None)
    def test_plan_equals_oracle(self, fleet, context, seed, mechanism):
        _label, make = mechanism
        plan, rng_array, oracle, members, rng_oracle = _both(
            make, fleet, context, seed
        )
        assert plan.transmissions == oracle.transmissions
        assert _members(plan) == _members(oracle) == members
        assert [t.group_size for t in plan.transmissions] == [
            len(m) for m in members
        ]
        for name in PLAN_COLUMNS:
            assert np.array_equal(
                getattr(plan.columns, name), getattr(oracle.columns, name)
            ), name
        assert plan == oracle
        # The generator ends in the same state: DR-SI's per-group draw
        # is the stream of one scalar draw per notified device.
        assert (
            rng_array.bit_generator.state == rng_oracle.bit_generator.state
        )
        plan.validate(fleet)
        scalar_validate(plan, fleet)

    @given(fleets(), contexts, seeds, mechanisms)
    @settings(max_examples=40, deadline=None)
    def test_columns_round_trip(self, fleet, context, seed, mechanism):
        _label, make = mechanism
        plan = make().plan(fleet, context, np.random.default_rng(seed))
        assert from_directives(tuple(plan.directives)) == plan.columns
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert not clone.columns.page_frame.flags.writeable
        for device in range(len(fleet)):
            directive = plan.directive_for(device)
            assert directive.device_index == device
            assert directive == plan.directives[plan.columns.row_of(device)]


# ----------------------------------------------------------------------
# Validate: array checks vs the per-directive oracle
# ----------------------------------------------------------------------
#: (column, change(value, the row's preferred period, rng)).
COLUMN_CORRUPTIONS = (
    ("page_frame", lambda v, period, rng: v + 1),
    ("page_frame", lambda v, period, rng: v - period),
    ("page_frame", lambda v, period, rng: v + period),
    ("page_frame", lambda v, period, rng: v - int(rng.integers(1, 5000))),
    ("connect_frame", lambda v, period, rng: v + int(rng.integers(1, 5000))),
    ("connect_frame", lambda v, period, rng: v - int(rng.integers(1, 5000))),
    ("adaptation_page_frame", lambda v, period, rng: v + 1),
    ("adaptation_page_frame", lambda v, period, rng: v + period),
    ("adaptation_page_frame", lambda v, period, rng: v - period),
    ("adapted_cycle", lambda v, period, rng: v * 2),
    ("adapted_cycle", lambda v, period, rng: max(v // 2, 32)),
    ("transmission", lambda v, period, rng: v + 1),
    ("device", lambda v, period, rng: v + 1),
    ("device", lambda v, period, rng: v + 1000),
    ("method", lambda v, period, rng: (v + 1) % 4),
)


def _corrupt_column(plan, fleet, rng):
    name, change = COLUMN_CORRUPTIONS[int(rng.integers(len(COLUMN_CORRUPTIONS)))]
    row = int(rng.integers(len(plan.columns)))
    period = int(fleet.periods[plan.columns.device[row]])
    column = getattr(plan.columns, name).copy()
    column[row] = change(int(column[row]), period, rng)
    return {name: column}, plan.transmissions


def _corrupt_transmission(plan, fleet, rng):
    index = int(rng.integers(plan.n_transmissions))
    table = plan.transmissions
    if rng.random() < 0.5:
        frame = table.frame.copy()
        frame[index] = max(0, frame[index] + int(rng.integers(-3000, 3000)))
        return {}, replace(table, frame=frame)
    rate = table.rate_bps.copy()
    rate[index] *= float(rng.choice([1.5, 10.0]))
    return {}, replace(table, rate_bps=rate)


def _scalar_check_rows(raw) -> None:
    """Apply the oracle's field-by-field row check to every raw row."""
    for row in zip(
        *(raw[name].tolist() for name in PLAN_COLUMNS if name != "transmission")
    ):
        scalar_check_row(*row)


def _outcome(check):
    try:
        check()
    except PlanError as exc:
        return type(exc)
    return None


class TestValidateMatchesOracle:
    @given(fleets(), contexts, seeds, mechanisms, seeds)
    @settings(max_examples=400, deadline=None)
    def test_single_field_corruption(self, fleet, context, seed, mechanism, flip):
        _label, make = mechanism
        plan = make().plan(fleet, context, np.random.default_rng(seed))
        rng = np.random.default_rng(flip)
        corrupt = _corrupt_column if rng.random() < 0.75 else _corrupt_transmission
        overrides, transmissions = corrupt(plan, fleet, rng)
        raw = {name: getattr(plan.columns, name) for name in PLAN_COLUMNS}
        raw.update(overrides)
        # The columns reject a malformed row at construction exactly when
        # the field-by-field check rejects it.
        try:
            columns = PlanArrays(**raw)
        except PlanError:
            with pytest.raises(ReproError):
                _scalar_check_rows(raw)
            return
        _scalar_check_rows(raw)
        assert from_directives(tuple(columns)) == columns
        bad = replace(plan, transmissions=transmissions, directives=columns)
        array_error = _outcome(lambda: bad.validate(fleet))
        scalar_error = _outcome(lambda: scalar_validate(bad, fleet))
        assert array_error == scalar_error


# ----------------------------------------------------------------------
# Membership through revisions: survivors in row order, then joiners
# ----------------------------------------------------------------------
def _revised_members(members, revision, left, n_joined):
    """The oracle's member tuples after ``revision``: each surviving
    window keeps its members that stayed, in order, then gains its
    joiners in join order; new windows hold only joiners. The joiners
    are the revised plan's last ``n_joined`` rows."""
    revised = {
        new: [d for d in members[old] if d not in left]
        for old, new in revision.transmission_map
    }
    for new in revision.new_transmissions:
        revised[new] = []
    columns = revision.revised.columns
    joiners = slice(len(columns) - n_joined, len(columns))
    for device, tx in zip(
        columns.device[joiners].tolist(), columns.transmission[joiners].tolist()
    ):
        revised[tx].append(device)
    return [tuple(revised[i]) for i in range(len(revised))]


class TestMembershipThroughRevisions:
    @given(fleets(max_devices=10), contexts, seeds, mechanisms, st.data())
    @settings(max_examples=60, deadline=None)
    def test_revisions_and_strip(self, fleet, context, seed, mechanism, data):
        _label, make = mechanism
        plan = make().plan(fleet, context, np.random.default_rng(seed))
        _oracle, members = scalar_plan(
            make(), fleet, context, np.random.default_rng(seed)
        )
        working, gone = fleet, set()
        now = context.announce_frame
        last_frame = int(plan.transmissions.frame.max())
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            now = data.draw(st.integers(min_value=now, max_value=last_frame))
            active = [i for i in range(len(working)) if i not in gone]
            left = data.draw(
                st.lists(st.sampled_from(active), unique=True, max_size=3)
                if active
                else st.just([])
            )
            joiners = [
                data.draw(
                    joiner_devices(imsi=10**12 + len(working) + j, nb=working.nb)
                )
                for j in range(data.draw(st.integers(min_value=0, max_value=2)))
            ]
            if joiners:
                working = Fleet.concatenate([working, Fleet.from_devices(joiners)])
            joined = tuple(range(len(working) - len(joiners), len(working)))
            revision = revise_plan(
                plan,
                working,
                joined=joined,
                left=tuple(left),
                now_frame=now,
                context=context,
            )
            device = revision.revised.columns.device
            assert tuple(device[device.size - len(joined) :]) == joined
            members = _revised_members(members, revision, set(left), len(joined))
            plan = revision.revised
            gone.update(left)
            assert _members(plan) == members
        kept = [i for i in range(len(working)) if i not in gone]
        if not kept:
            return  # everyone left: there is no fleet to strip down to
        final_fleet, final = _strip_left(working, plan, gone)
        renumbered = {old: new for new, old in enumerate(kept)}
        assert _members(final) == [
            tuple(renumbered[d] for d in m) for m in members
        ]
        final.validate(final_fleet)
