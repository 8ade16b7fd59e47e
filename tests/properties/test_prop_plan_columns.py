"""Property tests: columnar planners and validate against the scalar oracle.

The mechanisms build their directive columns with array kernels over
the fleet's columns; ``plan_oracle`` keeps the per-device object loops
they replaced. On random fleets spanning every ladder cycle (eDRX up to
2^20 frames), every nB and every coverage class, each mechanism's plan
must equal the oracle's exactly — transmissions, every column, row
order — and consume the generator identically. The whole-array
``validate`` must agree with the per-directive checks on valid plans
and on single-field corruptions of every kind.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_oracle import scalar_check_row, scalar_plan, scalar_validate
from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.core.plan import PLAN_COLUMNS, PlanArrays
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import NB
from repro.enb.cell import CellConfig
from repro.errors import PlanError, ReproError
from repro.grouping.policies import CoverageStratifiedPolicy
from repro.grouping.policy import GroupingDecision, GroupingPolicy, PlannedGroup
from repro.phy.coverage import CoverageClass
from repro.timebase import FrameWindow


@st.composite
def fleets(draw, max_devices=14):
    """Fleets over the full ladder, every nB (fleet-wide or mixed) and
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
    fleet_nb = draw(st.one_of(st.none(), st.sampled_from(list(NB))))
    # The first device's cycle keeps the search horizon (2 * maxDRX)
    # longer than any TI below; the others range over the full ladder.
    cycles = [draw(st.sampled_from([c for c in FULL_LADDER if c >= 4096]))]
    cycles += [draw(st.sampled_from(list(FULL_LADDER))) for _ in imsis[1:]]
    devices = [
        NbIotDevice.build(
            imsi=imsi,
            cycle=cycle,
            coverage=draw(st.sampled_from(list(CoverageClass))),
            nb=fleet_nb if fleet_nb is not None else draw(st.sampled_from(list(NB))),
        )
        for imsi, cycle in zip(imsis, cycles)
    ]
    return Fleet(devices)


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
        groups = [
            PlannedGroup(
                members=members[j :: self.k],
                window=FrameWindow(t + j * ti - ti, t + j * ti),
            )
            for j in range(min(self.k, len(fleet)))
        ]
        return GroupingDecision(groups=tuple(reversed(groups)))


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
    """(array plan, array rng, oracle plan, oracle rng) on one seed."""
    rng_array = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    plan = make().plan(fleet, context, rng_array)
    oracle = scalar_plan(make(), fleet, context, rng_oracle)
    return plan, rng_array, oracle, rng_oracle


class TestPlannersMatchOracle:
    @given(fleets(), contexts, seeds, mechanisms)
    @settings(max_examples=150, deadline=None)
    def test_plan_equals_oracle(self, fleet, context, seed, mechanism):
        _label, make = mechanism
        plan, rng_array, oracle, rng_oracle = _both(make, fleet, context, seed)
        assert plan.transmissions == oracle.transmissions
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
        assert PlanArrays.from_directives(tuple(plan.directives)) == plan.columns
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
    period = int(fleet.arrays.periods[plan.columns.device[row]])
    column = getattr(plan.columns, name).copy()
    column[row] = change(int(column[row]), period, rng)
    return {name: column}, plan.transmissions


def _corrupt_transmission(plan, fleet, rng):
    index = int(rng.integers(plan.n_transmissions))
    tx = plan.transmissions[index]
    kind = int(rng.integers(3))
    if kind == 0:
        tx = replace(tx, frame=max(0, tx.frame + int(rng.integers(-3000, 3000))))
    elif kind == 1:
        tx = replace(tx, rate_bps=tx.rate_bps * float(rng.choice([1.5, 10.0])))
    else:
        tx = replace(tx, index=tx.index + 1)
    transmissions = list(plan.transmissions)
    transmissions[index] = tx
    return {}, tuple(transmissions)


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
        assert PlanArrays.from_directives(tuple(columns)) == columns
        bad = replace(plan, transmissions=transmissions, directives=columns)
        array_error = _outcome(lambda: bad.validate(fleet))
        scalar_error = _outcome(lambda: scalar_validate(bad, fleet))
        assert array_error == scalar_error
