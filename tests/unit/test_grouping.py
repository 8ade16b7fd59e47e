"""Unit tests for the grouping-policy subsystem and its registries."""

import numpy as np
import pytest

from repro.core import DaScMechanism, DrScMechanism, mechanism_by_name
from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.registry import MECHANISMS, mechanism_factory, register_mechanism
from repro.devices.fleet import COVERAGE_ORDER
from repro.errors import ConfigurationError, SetCoverError, TimebaseError
from repro.grouping import (
    GROUPING_POLICIES,
    CollisionAwarePolicy,
    CoverageStratifiedPolicy,
    ExactCoverPolicy,
    GreedyCoverPolicy,
    GroupingDecision,
    RandomWindowPolicy,
    SingleGroupPolicy,
    grouping_policy_by_name,
    grouping_policy_factory,
    register_grouping_policy,
)
from repro.rrc.nprach import NprachConfig
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SweepAxis, expand_grid, parse_axis
from repro.setcover.greedy import greedy_window_cover
from repro.traffic import generate_fleet
from repro.traffic.generator import CoverageMix
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        30,
        MODERATE_EDRX_MIXTURE,
        np.random.default_rng(5),
        coverage_mix=CoverageMix(normal=0.5, robust=0.3, extreme=0.2),
    )


@pytest.fixture(scope="module")
def context():
    return PlanningContext(payload_bytes=100_000)


def groups_of(decision):
    """The decision's groups as ``(start, end, members)`` tuples."""
    return [
        (
            int(decision.start[g]),
            int(decision.end[g]),
            decision.members[decision.bounds[g] : decision.bounds[g + 1]].tolist(),
        )
        for g in range(decision.n_groups)
    ]


class TestDecisionValidation:
    def test_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            GroupingDecision([0, 5], [10, 15], [0, 1], [0, 2, 2])

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            GroupingDecision([10], [10], [0], [0, 1])

    def test_rejects_window_before_frame_zero(self):
        with pytest.raises(TimebaseError):
            GroupingDecision([-1], [10], [0], [0, 1])

    def test_rejects_no_groups(self):
        with pytest.raises(ConfigurationError):
            GroupingDecision.from_groups([], [], [])

    @pytest.mark.parametrize(
        "start, end, bounds",
        [
            ([0, 5], [10], [0, 2, 3]),  # one end short
            ([0, 5], [10, 15], [0, 3]),  # one bound short
            ([0, 5], [10, 15], [1, 2, 3]),  # bounds not from 0
            ([0, 5], [10, 15], [0, 1, 2]),  # bounds not up to the members
        ],
    )
    def test_rejects_mismatched_columns(self, start, end, bounds):
        with pytest.raises(ConfigurationError):
            GroupingDecision(start, end, [0, 2, 1], bounds)

    def test_rejects_non_partition(self):
        decision = GroupingDecision.from_groups(
            [0, 5], [10, 15], [np.array([0, 1]), np.array([1])]
        )
        with pytest.raises(ConfigurationError):
            decision.validate_partition(3)

    def test_accepts_partition(self):
        decision = GroupingDecision.from_groups(
            [0, 5], [10, 15], [np.array([0, 2]), np.array([1])]
        )
        decision.validate_partition(3)
        assert decision.n_groups == 2
        assert decision.group_sizes == (2, 1)
        assert decision.largest_group == 2
        assert decision.bounds.tolist() == [0, 2, 3]

    def test_take_reorders_whole_groups(self):
        decision = GroupingDecision.from_groups(
            [20, 0, 5],
            [30, 10, 15],
            [np.array([3]), np.array([0, 2]), np.array([1, 4, 5])],
        )
        taken = decision.take(np.array([1, 2, 0]))
        assert groups_of(taken) == [
            (0, 10, [0, 2]),
            (5, 15, [1, 4, 5]),
            (20, 30, [3]),
        ]


class TestGreedyCoverPolicy:
    def test_matches_inline_greedy_cover(self, fleet, context):
        """The policy is a pass-through of the historical inline call."""
        decision = GreedyCoverPolicy().group(
            fleet, context, np.random.default_rng(3)
        )
        cover = greedy_window_cover(
            fleet.phases,
            fleet.periods,
            window_len=context.inactivity_timer_frames,
            horizon_start=0,
            horizon_end=2 * int(fleet.max_cycle),
            rng=np.random.default_rng(3),
        )
        assert groups_of(decision) == groups_of(cover)


class TestExactCoverPolicy:
    def test_never_worse_than_greedy(self, context):
        small = generate_fleet(
            14, MODERATE_EDRX_MIXTURE, np.random.default_rng(9)
        )
        exact = ExactCoverPolicy().group(small, context)
        greedy = GreedyCoverPolicy().group(small, context)
        assert exact.n_groups <= greedy.n_groups

    def test_refuses_large_fleets(self, fleet, context):
        with pytest.raises(SetCoverError):
            ExactCoverPolicy(max_devices=10).group(fleet, context)

    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigurationError):
            ExactCoverPolicy(max_devices=0)


class TestCollisionAwarePolicy:
    def test_cap_derivation_matches_model(self):
        policy = CollisionAwarePolicy(
            nprach=NprachConfig(n_preambles=48),
            max_collision_probability=0.1,
        )
        size = policy.max_group_size
        assert policy.collision_probability(size) <= 0.1
        assert policy.collision_probability(size + 1) > 0.1

    def test_single_preamble_forces_singletons(self):
        policy = CollisionAwarePolicy(nprach=NprachConfig(n_preambles=1))
        assert policy.max_group_size == 1
        assert policy.collision_probability(1) == 0.0
        assert policy.collision_probability(2) == 1.0

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ConfigurationError):
            CollisionAwarePolicy(max_collision_probability=0.0)

    def test_groups_respect_cap_and_windows(self, fleet, context):
        policy = CollisionAwarePolicy(max_collision_probability=0.05)
        decision = policy.group(fleet, context, np.random.default_rng(3))
        assert decision.largest_group <= policy.max_group_size
        # Splitting refines the greedy cover: same union per window.
        greedy = GreedyCoverPolicy().group(
            fleet, context, np.random.default_rng(3)
        )
        assert sum(decision.group_sizes) == len(fleet)
        # Every greedy group is cut, in member order, into consecutive
        # chunks that keep its window.
        chunks = iter(groups_of(decision))
        for start, end, members in groups_of(greedy):
            joined = []
            while len(joined) < len(members):
                chunk_start, chunk_end, chunk = next(chunks)
                assert (chunk_start, chunk_end) == (start, end)
                joined += chunk
            assert joined == members
        assert next(chunks, None) is None


class TestCoverageStratifiedPolicy:
    def test_groups_are_coverage_homogeneous(self, fleet, context):
        decision = CoverageStratifiedPolicy().group(
            fleet, context, np.random.default_rng(3)
        )
        codes = fleet.coverage_codes
        for _, _, members in groups_of(decision):
            assert len(set(codes[members].tolist())) == 1

    def test_stratified_bearers_never_slower(self, fleet, context):
        """Each stratified group's bearer runs at its class rate."""
        decision = CoverageStratifiedPolicy().group(
            fleet, context, np.random.default_rng(3)
        )
        for _, _, members in groups_of(decision):
            assert fleet.group_rate_bps(members) == fleet.downlink_bps(members).min()


class TestRandomWindowPolicy:
    def test_requires_rng(self, fleet, context):
        with pytest.raises(ConfigurationError):
            RandomWindowPolicy().group(fleet, context, None)

    def test_partitions_fleet(self, fleet, context):
        decision = RandomWindowPolicy().group(
            fleet, context, np.random.default_rng(3)
        )
        decision.validate_partition(len(fleet))

    def test_deterministic_per_seed(self, fleet, context):
        a = RandomWindowPolicy().group(fleet, context, np.random.default_rng(3))
        b = RandomWindowPolicy().group(fleet, context, np.random.default_rng(3))
        assert groups_of(a) == groups_of(b)


class TestSingleGroupPolicy:
    def test_one_group_at_paper_frame(self, fleet, context):
        decision = SingleGroupPolicy().group(fleet, context)
        assert decision.n_groups == 1
        t = context.announce_frame + 2 * int(fleet.max_cycle)
        assert decision.end.tolist() == [t]
        assert (t - decision.start).tolist() == [context.inactivity_timer_frames]
        assert decision.group_sizes == (len(fleet),)


class TestGroupingRegistry:
    def test_builtins_present(self):
        assert set(GROUPING_POLICIES) >= {
            "greedy-cover",
            "exact-cover",
            "collision-aware",
            "coverage-stratified",
            "random",
            "single-group",
        }

    def test_lookup_and_unknown(self):
        assert grouping_policy_by_name("greedy-cover").name == "greedy-cover"
        with pytest.raises(ConfigurationError):
            grouping_policy_factory("no-such-policy")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register_grouping_policy("greedy-cover", GreedyCoverPolicy)

    def test_dynamic_registration_reaches_scenarios(self):
        class TightPolicy(CollisionAwarePolicy):
            name = "tight-collision"

        register_grouping_policy("tight-collision", TightPolicy)
        try:
            spec = ScenarioSpec(name="tmp", grouping="tight-collision")
            assert spec.grouping_policy().name == "tight-collision"
        finally:
            del GROUPING_POLICIES["tight-collision"]


class TestMechanismRegistry:
    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register_mechanism("dr-sc", DrScMechanism)

    def test_unknown_mechanism_raises(self):
        with pytest.raises(ConfigurationError):
            mechanism_factory("no-such-mechanism")

    def test_dynamic_mechanism_usable_in_scenarios(self):
        class EagerDrSc(DrScMechanism):
            name = "eager-dr-sc"

        register_mechanism("eager-dr-sc", EagerDrSc)
        try:
            spec = ScenarioSpec(name="tmp", mechanism="eager-dr-sc")
            mechanism = spec.mechanism_obj()
            assert isinstance(mechanism, EagerDrSc)
            assert mechanism.policy.name == "greedy-cover"
        finally:
            del MECHANISMS["eager-dr-sc"]

    def test_mechanism_by_name_threads_policy(self):
        mechanism = mechanism_by_name(
            "da-sc", policy=grouping_policy_by_name("coverage-stratified")
        )
        assert mechanism.policy.name == "coverage-stratified"


class TestScenarioGroupingField:
    def test_default_is_mechanism_default(self):
        spec = ScenarioSpec(name="tmp")
        assert spec.grouping is None
        assert spec.grouping_policy() is None
        assert spec.mechanism_obj().policy.name == "greedy-cover"

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="tmp", grouping="no-such-policy")

    def test_incompatible_pairing_fails_at_spec_creation(self):
        """dr-sc x single-group dies in __post_init__, not mid-sweep."""
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="tmp", mechanism="dr-sc", grouping="single-group")

    def test_grouping_changes_fingerprint(self):
        base = ScenarioSpec(name="tmp")
        override = base.with_overrides(grouping="coverage-stratified")
        assert base.fingerprint() != override.fingerprint()

    def test_grouping_listed_in_summary(self):
        spec = ScenarioSpec(name="tmp", grouping="random")
        assert spec.summary_fields()["grouping"] == "random"


class TestGroupingSweepAxis:
    def test_parse_axis_keeps_strings(self):
        axis = parse_axis("grouping=greedy-cover,random")
        assert axis.values == ("greedy-cover", "random")
        assert axis.field == "grouping"

    def test_expand_grid_applies_policy(self):
        spec = ScenarioSpec(name="tmp")
        cells = expand_grid(
            [spec],
            [SweepAxis("grouping", ("greedy-cover", "coverage-stratified"))],
        )
        assert [cell.spec.grouping for cell in cells] == [
            "greedy-cover",
            "coverage-stratified",
        ]
        assert "grouping=coverage-stratified" in cells[1].label
