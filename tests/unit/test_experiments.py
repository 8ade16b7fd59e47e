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
        import repro.experiments.uptime as uptime
        from repro.experiments.runner import run_with_charts

        calls = []
        real = uptime.compare_mechanisms_once

        def counting(rng, config, payload_bytes):
            calls.append(payload_bytes)
            return real(rng, config, payload_bytes)

        monkeypatch.setattr(uptime, "compare_mechanisms_once", counting)
        config = ExperimentConfig(n_runs=2, n_devices=30)
        tables, charts = run_with_charts(["6a", "6b"], config)
        assert set(tables) == {"6a", "6b"} and "6a" in charts
        # n_runs x 3 payloads: 6(a) reads 6(b)'s default-payload campaign.
        assert sorted(calls) == sorted(list(config.payload_sizes) * 2)

    def test_figure_runs_validate_every_plan(self, monkeypatch):
        import numpy as np

        from repro.core.plan import MulticastPlan
        from repro.experiments.ablations import (
            GROUPING_ABLATION_COMBOS,
            _a6_run,
            dasc_strategy_once,
        )
        from repro.experiments.uptime import compare_mechanisms_once
        from repro.timebase import seconds_to_frames
        from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

        validated = []
        real = MulticastPlan.validate

        def counting(plan, fleet):
            validated.append(plan)
            return real(plan, fleet)

        monkeypatch.setattr(MulticastPlan, "validate", counting)
        config = ExperimentConfig(n_runs=1, n_devices=40)
        runs = (
            (lambda rng: compare_mechanisms_once(rng, config, 100_000), 4),
            (lambda rng: dasc_strategy_once(rng, config), 2),
            (
                lambda rng: _a6_run(
                    rng, 0, 12, MODERATE_EDRX_MIXTURE,
                    seconds_to_frames(20.48), 100_000,
                ),
                len(GROUPING_ABLATION_COMBOS),
            ),
        )
        for run, n_plans in runs:
            validated.clear()
            run(np.random.default_rng(5))
            # One validate per planned mechanism, each on its own plan.
            assert len(validated) == n_plans
            assert len({id(plan) for plan in validated}) == n_plans

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a1_columns_match_the_scalar_paging_oracle(self, seed):
        """A1's column arithmetic equals the per-directive loop over the
        scalar TS 36.304 pattern, value for value."""
        import numpy as np

        from repro.core import AdaptationStrategy, DaScMechanism
        from repro.core.plan import WakeMethod
        from repro.drx.paging import pattern_for
        from repro.experiments.ablations import dasc_strategy_once
        from repro.traffic.generator import generate_fleet

        config = ExperimentConfig(n_runs=1, n_devices=150)
        got = dasc_strategy_once(np.random.default_rng(seed), config)

        spec = config.scenario("a1")
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
                drx = fleet[d.device_index].drx
                extra_pos += pattern_for(
                    drx.ue_id, d.adapted_cycle, drx.nb
                ).schedule.count_in(d.adaptation_page_frame + 1, d.page_frame)
            key = strategy.value
            assert adapted
            assert got[f"{key}/adapted_devices"] == float(len(adapted))
            assert got[f"{key}/intermediate_pos"] == float(extra_pos)
            assert got[f"{key}/mean_adapted_cycle_s"] == float(
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
