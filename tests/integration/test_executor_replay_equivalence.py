"""Cross-validation: arithmetic executor == event-driven replay.

The two executors implement the same campaign semantics through
completely different code paths (closed-form timeline accounting vs a
discrete-event state machine). Agreement across mechanisms and random
fleets is strong evidence both are right; disagreement has caught real
off-by-one-PO bugs during development.
"""

import numpy as np
import pytest
from executor_oracle import EventDrivenCampaign, assert_matches_replay

from repro.core import (
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE, PAPER_DEFAULT_MIXTURE

MECHANISMS = [DrScMechanism, DaScMechanism, DrSiMechanism, UnicastBaseline]

#: Mechanism x grouping-policy pairs: each mechanism with two policies
#: it accepts, so the equivalence claim covers group formation too
#: (the replay docstring promises all three mechanisms and multiple
#: grouping policies).
MECHANISM_POLICY_GRID = [
    (DrScMechanism, "greedy-cover"),
    (DrScMechanism, "coverage-stratified"),
    (DaScMechanism, "single-group"),
    (DaScMechanism, "collision-aware"),
    (DrSiMechanism, "single-group"),
    (DrSiMechanism, "random"),
]


def _compare(fleet, plan, horizon=None):
    analytic = CampaignExecutor().execute(fleet, plan, horizon_frames=horizon)
    replay = EventDrivenCampaign(fleet, plan).run(
        horizon_frames=analytic.horizon_frames
    )
    assert_matches_replay(analytic, replay, seconds_atol=1e-6)
    return analytic, replay


@pytest.mark.parametrize("mechanism_cls", MECHANISMS)
def test_equivalence_per_mechanism(mechanism_cls, moderate_fleet, context):
    rng = np.random.default_rng(99)
    plan = mechanism_cls().plan(moderate_fleet, context, rng)
    plan.validate(moderate_fleet)
    _compare(moderate_fleet, plan)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_equivalence_random_fleets(seed):
    rng = np.random.default_rng(seed)
    fleet = generate_fleet(15, MODERATE_EDRX_MIXTURE, rng)
    context = PlanningContext(payload_bytes=50_000)
    for mechanism_cls in MECHANISMS:
        plan = mechanism_cls().plan(fleet, context, rng)
        _compare(fleet, plan)


def test_equivalence_paper_mixture_small():
    rng = np.random.default_rng(5)
    fleet = generate_fleet(12, PAPER_DEFAULT_MIXTURE, rng)
    context = PlanningContext(payload_bytes=100_000)
    for mechanism_cls in MECHANISMS:
        plan = mechanism_cls().plan(fleet, context, rng)
        _compare(fleet, plan)


@pytest.mark.parametrize(
    "mechanism_cls,policy_name",
    MECHANISM_POLICY_GRID,
    ids=[f"{m.__name__}-{p}" for m, p in MECHANISM_POLICY_GRID],
)
def test_equivalence_mechanism_policy_grid(
    mechanism_cls, policy_name, moderate_fleet, context
):
    from repro.grouping import grouping_policy_by_name

    rng = np.random.default_rng(42)
    mechanism = mechanism_cls(policy=grouping_policy_by_name(policy_name))
    plan = mechanism.plan(moderate_fleet, context, rng)
    plan.validate(moderate_fleet)
    _compare(moderate_fleet, plan)


@pytest.mark.parametrize(
    "mechanism_cls,policy_name",
    MECHANISM_POLICY_GRID,
    ids=[f"{m.__name__}-{p}" for m, p in MECHANISM_POLICY_GRID],
)
def test_equivalence_grid_random_fleets(mechanism_cls, policy_name):
    from repro.grouping import grouping_policy_by_name

    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        fleet = generate_fleet(14, MODERATE_EDRX_MIXTURE, rng)
        context = PlanningContext(payload_bytes=60_000)
        mechanism = mechanism_cls(policy=grouping_policy_by_name(policy_name))
        plan = mechanism.plan(fleet, context, rng)
        _compare(fleet, plan)


def test_replay_trace_is_coherent(moderate_fleet, context):
    """The event trace tells the campaign story in time order."""
    rng = np.random.default_rng(17)
    plan = DaScMechanism().plan(moderate_fleet, context, rng)
    campaign = EventDrivenCampaign(moderate_fleet, plan, trace=True)
    campaign.run()
    trace = campaign.trace
    assert trace, "trace should not be empty"
    times = [event.time_s for event in trace]
    assert times == sorted(times)
    kinds = {event.kind for event in trace}
    from repro.sim.events import EventKind

    assert EventKind.TX_START in kinds and EventKind.TX_END in kinds
