"""Comparison campaigns: several plans in the runner's one cell.

* a one-plan comparison is its spec's scenario run, bit for bit once
  the ``label/`` prefix is stripped, on both backends — there is one
  path that plans, validates and executes a cell;
* plans compared in one cell share a horizon, and a plan executed
  again over it repeats its own random-access draws;
* multi-cell specs are rejected, and the cache key covers every plan's
  mechanism, policy and strategy.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
)
from repro.errors import ConfigurationError
from repro.grouping.registry import grouping_policy_by_name
from repro.scenarios import (
    comparison_campaign,
    golden_spec,
    run_scenario,
    scenario,
)
from repro.scenarios.runner import comparison_run
from repro.sim.montecarlo import run_campaigns

#: Single-cell specs covering every mechanism, RACH contention and
#: lossy repair rounds.
ONE_PLAN_NAMES = [
    "paper-baseline",
    "dense-urban",
    "deep-coverage-heavy",
    "lossy-link-repair",
    "mixed-traffic-stress",
    "unicast-reference",
]


def _values(stats):
    return {name: s.values.tolist() for name, s in stats.items()}


class TestOnePlanIsTheScenarioRun:
    @pytest.mark.parametrize(
        "backend,workers", [("serial", None), ("fused", 2)]
    )
    def test_equals_run_scenario_bit_for_bit(self, backend, workers):
        specs = [golden_spec(scenario(name)) for name in ONE_PLAN_NAMES]
        results = run_campaigns(
            [
                comparison_campaign(spec, [("only", spec.mechanism_obj())], "t")
                for spec in specs
            ],
            backend,
            workers=workers,
        )
        for spec, stats in zip(specs, results):
            assert all(name.startswith("only/") for name in stats)
            stripped = {
                name[len("only/"):]: values
                for name, values in _values(stats).items()
            }
            assert stripped == _values(run_scenario(spec)), spec.name


class TestCommonHorizon:
    def test_re_execution_repeats_the_plans_own_draws(self):
        # Under contention a plan's random access draws from the run
        # generator; DR-SC ends before DA-SC, so in the pair it executes
        # again over DA-SC's horizon from its first execution's state.
        spec = golden_spec(scenario("contention-storm"))
        drsc = ("dr-sc", DrScMechanism())
        solo = comparison_run(spec, (drsc,), np.random.default_rng(4))
        pair = comparison_run(
            spec, (drsc, ("da-sc", DaScMechanism())), np.random.default_rng(4)
        )
        for name in ("transmissions", "mean_wait_s", "connected_s"):
            assert pair[f"dr-sc/{name}"] == solo[f"dr-sc/{name}"]
        assert pair["dr-sc/light_sleep_s"] > solo["dr-sc/light_sleep_s"]

    def test_fused_matches_serial(self):
        spec = golden_spec(scenario("mixed-traffic-stress"))
        policy = grouping_policy_by_name("collision-aware")
        campaign = comparison_campaign(
            spec,
            [
                ("dr-sc", DrScMechanism(policy)),
                ("da-sc", DaScMechanism()),
                ("dr-si", DrSiMechanism()),
            ],
            "t",
        )
        (serial,) = run_campaigns([campaign])
        (fused,) = run_campaigns([campaign], "fused", workers=2)
        assert _values(serial) == _values(fused)


class TestComparisonContract:
    def test_multi_cell_spec_rejected(self):
        spec = golden_spec(scenario("city-rollout"))
        with pytest.raises(ConfigurationError, match="one cell"):
            comparison_campaign(spec, (("a", DrScMechanism()),), "t")

    @pytest.mark.parametrize("labels", [(), ("a", "a")])
    def test_labels_must_be_distinct_and_present(self, labels):
        spec = golden_spec(scenario("paper-baseline"))
        plans = tuple((label, DrScMechanism()) for label in labels)
        with pytest.raises(ConfigurationError, match="labels"):
            comparison_campaign(spec, plans, "t")

    def test_cache_key_covers_mechanism_policy_and_strategy(self):
        spec = golden_spec(scenario("paper-baseline"))

        def key(mechanism):
            return comparison_campaign(spec, [("x", mechanism)], "t").fingerprint

        base = key(DaScMechanism(AdaptationStrategy.PAPER))
        assert key(DaScMechanism(AdaptationStrategy.PAPER)) == base
        variants = [
            key(DrSiMechanism()),
            key(DaScMechanism(AdaptationStrategy.LARGEST_WITHIN_TI)),
            key(
                DaScMechanism(
                    policy=grouping_policy_by_name("coverage-stratified")
                )
            ),
            key(DrScMechanism()),
            key(DrScMechanism(grouping_policy_by_name("random"))),
        ]
        assert len({base, *variants}) == len(variants) + 1
