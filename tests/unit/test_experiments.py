"""Unit tests for experiment configuration and reporting."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import Table, percent, render_markdown, render_table


class TestExperimentConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.inactivity_timer_s == pytest.approx(20.48)
        assert config.device_counts[0] == 100
        assert config.device_counts[-1] == 1000
        assert config.n_runs == 100
        assert list(config.payload_sizes) == [100_000, 1_000_000, 10_000_000]

    def test_cell_uses_ti(self):
        config = replace(ExperimentConfig(), inactivity_timer_s=10.24)
        assert config.scenario("t").cell().inactivity_timer_frames == 1024

    def test_planning_context(self):
        spec = ExperimentConfig().scenario("t", payload_bytes=100_000)
        context = spec.planning_context()
        assert context.payload_bytes == 100_000
        assert context.inactivity_timer_frames == 2048

    def test_scenario_carries_the_campaign(self):
        config = ExperimentConfig(
            mixture="short-edrx", grouping="collision-aware", n_runs=7
        )
        spec = config.scenario("t", n_devices=42)
        assert spec.mechanism == "dr-sc"
        assert (spec.n_devices, spec.n_runs, spec.seed) == (42, 7, 2018)
        assert spec.mixture == "short-edrx"
        assert spec.grouping == "collision-aware"
        assert spec.payload_bytes == config.default_payload
        with pytest.raises(ConfigurationError):
            config.scenario("t", no_such_field=1)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(ExperimentConfig(), inactivity_timer_s=0)
        with pytest.raises(ConfigurationError):
            replace(ExperimentConfig(), n_runs=0)
        with pytest.raises(ConfigurationError):
            replace(ExperimentConfig(), device_counts=())
        # The spec's own checks run at config creation.
        for bad in (
            {"n_devices": 0},
            {"mixture": "no-such-mixture"},
            {"grouping": "no-such-policy"},
            {"grouping": "single-group"},  # DR-SC cannot carry it
        ):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(**bad)

    def test_mixture_objects_are_rejected(self):
        # A custom mixture must never run as the registered one that
        # shares its name.
        from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

        with pytest.raises(ConfigurationError):
            ExperimentConfig(mixture=PAPER_DEFAULT_MIXTURE)


class TestRunner:
    def test_fig6_default_payload_campaign_runs_once(self, monkeypatch):
        from repro.experiments.runner import run_with_charts
        from repro.sim import montecarlo

        payloads = []
        real = montecarlo.drain

        def counting(items, *args, **kwargs):
            payloads.extend(
                item.payload.spec.payload_bytes
                for item in items
                if item.payload.plans is not None
            )
            return real(items, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "drain", counting)
        config = ExperimentConfig(n_runs=2, n_devices=30)
        tables, charts = run_with_charts(["6a", "6b"], config)
        assert set(tables) == {"6a", "6b"} and "6a" in charts
        # n_runs x 3 payloads: 6(a) reads 6(b)'s default-payload campaign.
        assert sorted(payloads) == sorted(list(config.payload_sizes) * 2)

    def test_figure_runs_validate_every_plan(self, monkeypatch):
        from repro.core.plan import MulticastPlan
        from repro.experiments.ablations import (
            GROUPING_ABLATION_COMBOS,
            run_dasc_strategy_ablation,
            run_grouping_policy_ablation,
            run_setcover_quality,
        )
        from repro.experiments.uptime import run_fig6a
        from repro.sim.executor import CampaignExecutor

        validated = []
        real_validate = MulticastPlan.validate

        def counting(plan, fleet):
            validated.append(plan)
            return real_validate(plan, fleet)

        horizons = {}
        real_execute = CampaignExecutor.execute

        def recording(executor, fleet, plan, *args, **kwargs):
            result = real_execute(executor, fleet, plan, *args, **kwargs)
            horizons[id(plan)] = result.horizon_frames
            return result

        monkeypatch.setattr(MulticastPlan, "validate", counting)
        monkeypatch.setattr(CampaignExecutor, "execute", recording)
        config = ExperimentConfig(n_runs=1, n_devices=40)
        runs = (
            (lambda: run_fig6a(config), 4),
            (lambda: run_dasc_strategy_ablation(config), 2),
            (lambda: run_setcover_quality(n_runs=1), 2),
            (
                lambda: run_grouping_policy_ablation(n_runs=1),
                len(GROUPING_ABLATION_COMBOS),
            ),
        )
        for run, n_plans in runs:
            validated.clear()
            horizons.clear()
            run()
            # One validate per planned mechanism, each on its own plan.
            assert len(validated) == n_plans
            assert len({id(plan) for plan in validated}) == n_plans
            # Every plan's last execution spans one common horizon.
            assert set(horizons) == {id(plan) for plan in validated}
            assert len(set(horizons.values())) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a1_columns_match_the_scalar_paging_oracle(self, seed):
        """The cell's adaptation counts equal the per-directive loop over
        the scalar TS 36.304 pattern, value for value."""
        import numpy as np

        from repro.core import AdaptationStrategy, DaScMechanism
        from paging_oracle import schedule_of

        from repro.core.plan import WakeMethod
        from repro.scenarios.runner import comparison_run
        from repro.traffic.generator import generate_fleet

        config = ExperimentConfig(n_runs=1, n_devices=150)
        spec = config.scenario("a1")
        plans = tuple(
            (strategy.value, DaScMechanism(strategy))
            for strategy in AdaptationStrategy
        )
        got = comparison_run(spec, plans, np.random.default_rng(seed))

        rng = np.random.default_rng(seed)
        fleet = generate_fleet(spec.n_devices, spec.mixture_obj(), rng)
        for strategy in AdaptationStrategy:
            plan = DaScMechanism(strategy).plan(
                fleet, spec.planning_context(), rng
            )
            adapted = [
                d for d in plan.directives
                if d.method is WakeMethod.DRX_ADAPTATION
            ]
            extra_pos = 0
            for d in adapted:
                grid = schedule_of(fleet[d.device_index], d.adapted_cycle)
                extra_pos += grid.count_in(d.adaptation_page_frame + 1, d.page_frame)
            key = strategy.value
            assert adapted
            assert got[f"{key}/adapted_devices"] == float(len(adapted))
            assert got[f"{key}/intermediate_pos"] == float(extra_pos)
            assert got[f"{key}/adapted_cycle_s"] / len(adapted) == float(
                np.mean([d.adapted_cycle.seconds for d in adapted])
            )


class TestReporting:
    def _table(self) -> Table:
        return Table(
            title="T",
            headers=("a", "b"),
            rows=(("1", "2"), ("333", "4")),
            notes=("hello",),
        )

    def test_render_contains_everything(self):
        text = render_table(self._table())
        assert "T" in text and "333" in text and "note: hello" in text

    def test_alignment(self):
        lines = render_table(self._table()).splitlines()
        header_line = next(line for line in lines if line.startswith("a"))
        assert header_line.index("b") == 5  # 'a' padded to width 3 + 2 spaces

    def test_markdown(self):
        md = render_markdown(self._table())
        assert md.startswith("### T")
        assert "| 333 | 4 |" in md

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Table(title="T", headers=("a",), rows=(("1", "2"),))

    def test_percent(self):
        assert percent(0.0534) == "+5.3%"
        assert percent(-0.002, 2) == "-0.20%"
