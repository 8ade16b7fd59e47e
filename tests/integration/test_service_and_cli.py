"""Integration tests for the multicast service facade and the CLI."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.sim.eventlog import KIND_CODES, RunLog, live_metrics
from repro.sim.events import EventKind
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

_SERVICE_KINDS = (
    EventKind.CAMPAIGN_SUBMIT,
    EventKind.CAMPAIGN_REVISE,
    EventKind.CAMPAIGN_ADMIT,
    EventKind.CAMPAIGN_DEFER,
    EventKind.DEVICE_JOIN,
    EventKind.DEVICE_LEAVE,
)


def _per_campaign_walk(events):
    """``LiveMetrics.per_campaign`` counted one row at a time."""
    codes = {KIND_CODES[kind]: kind for kind in _SERVICE_KINDS}
    per_campaign = {}
    for row in events:
        kind = codes.get(int(row["kind"]))
        if kind is None:
            continue
        counters = per_campaign.setdefault(int(row["group"]), {})
        counters[kind.value] = counters.get(kind.value, 0) + 1
    return per_campaign



class TestOnDemandService:
    def test_full_campaign_report(self, rng):
        fleet = generate_fleet(25, MODERATE_EDRX_MIXTURE, rng)
        service = OnDemandMulticastService(mechanism=DaScMechanism())
        image = FirmwareImage(name="fw", version="1.2.3", size_bytes=100_000)
        report = service.deliver(fleet, image, rng=rng)
        assert report.plan.n_transmissions == 1
        assert report.paging.total_pages >= len(fleet)  # adaptation re-pages
        assert report.utilization.total_airtime_s > 0
        summary = report.summary()
        assert "da-sc" in summary
        assert "100KB" in summary

    def test_dr_si_report_packs_notifications(self, rng):
        fleet = generate_fleet(25, MODERATE_EDRX_MIXTURE, rng)
        service = OnDemandMulticastService(mechanism=DrSiMechanism())
        image = FirmwareImage(name="fw", version="1.2.3", size_bytes=100_000)
        report = service.deliver(fleet, image, rng=rng)
        # Any mltc-transmission entry makes its paging message
        # non-standard.
        assert report.paging.notifications > 0

    def test_dr_sc_utilization_reflects_many_transmissions(self, rng):
        fleet = generate_fleet(30, MODERATE_EDRX_MIXTURE, rng)
        service = OnDemandMulticastService(mechanism=DrScMechanism())
        image = FirmwareImage(name="fw", version="2", size_bytes=100_000)
        report = service.deliver(fleet, image, rng=rng)
        assert report.plan.n_transmissions > 1
        expected_airtime = sum(
            t.duration_frames for t in report.plan.transmissions
        ) * 0.010
        assert report.utilization.total_airtime_s == pytest.approx(
            expected_airtime
        )

    def test_no_paging_overflow_in_normal_operation(self, rng):
        fleet = generate_fleet(40, MODERATE_EDRX_MIXTURE, rng)
        service = OnDemandMulticastService(mechanism=DaScMechanism())
        image = FirmwareImage(name="fw", version="2", size_bytes=100_000)
        report = service.deliver(fleet, image, rng=rng)
        assert not report.paging.has_overflow


class TestCli:
    def test_demo_command(self, capsys):
        exit_code = main(
            ["demo", "--mechanism", "da-sc", "--devices", "20",
             "--payload", "100000", "--seed", "3"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mechanism" in out and "da-sc" in out

    def test_serve_command(self, capsys, tmp_path):
        record = tmp_path / "serve.npz"
        exit_code = main(
            ["serve", "--campaigns", "2", "--devices", "10",
             "--seed", "11", "--record", str(record)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "campaign-0" in out and "campaign-1" in out
        assert record.exists()

    def test_serve_records_are_bit_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        argv = ["serve", "--campaigns", "2", "--devices", "10", "--seed", "4"]
        assert main(argv + ["--record", str(a)]) == 0
        assert main(argv + ["--record", str(b)]) == 0
        capsys.readouterr()
        assert main(["runs", "diff", str(a), str(b)]) == 0
        assert "event-identical" in capsys.readouterr().out

    def test_live_metrics_equal_the_per_row_walk(self, capsys, tmp_path):
        record = tmp_path / "serve.npz"
        argv = ["serve", "--campaigns", "2", "--devices", "40", "--seed", "6",
                "--joins", "4", "--leaves", "3", "--record", str(record)]
        assert main(argv) == 0
        capsys.readouterr()
        run = RunLog.load(record)
        events = np.concatenate([log.events for log in run.cells.values()])
        metrics = live_metrics(events)
        assert metrics.campaigns == 2 and metrics.churn > 0
        expected = _per_campaign_walk(events)
        assert metrics.per_campaign == expected
        # Same insertion order too: campaigns, then kinds, by first row.
        assert [list(c.items()) for c in metrics.per_campaign.values()] == [
            list(c.items()) for c in expected.values()
        ]
        assert list(metrics.per_campaign) == list(expected)
        assert live_metrics(events[:0]).per_campaign == {}

    def test_grouping_list_names_every_policy(self, capsys):
        from repro.grouping import GROUPING_POLICIES

        assert main(["grouping", "list"]) == 0
        out = capsys.readouterr().out
        assert "Registered grouping policies" in out
        assert all(name in out for name in GROUPING_POLICIES)

    def test_scenarios_list_names_every_scenario(self, capsys):
        from repro.scenarios import all_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert all(spec.name in out for spec in all_scenarios())

    @pytest.mark.parametrize("counts", ["100,lots", ","])
    def test_bad_device_counts_rejected(self, counts):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--device-counts"):
            main(["figures", "--figure", "7", "--device-counts", counts])

    def test_scenarios_run_needs_a_selection(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--scenario NAME"):
            main(["scenarios", "run"])

    def test_figures_command_small(self, capsys):
        exit_code = main(
            ["figures", "--figure", "a5", "--runs", "1", "--devices", "30"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "A5" in out

    def test_figures_fig7_tiny(self, capsys):
        # A tiny sweep proves the full pipeline end to end. A single
        # sweep point must not attempt a line chart.
        import repro.experiments.config as config_module
        from dataclasses import replace

        from repro.experiments.runner import render_all, run_with_charts

        config = replace(
            config_module.ExperimentConfig(),
            n_runs=1,
            device_counts=(50,),
        )
        tables, charts = run_with_charts(["7"], config)
        assert "7" not in charts
        text = render_all(tables, charts)
        assert "Fig. 7" in text and "50" in text

    def test_figures_fig7_sweep_renders_chart(self):
        from dataclasses import replace

        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import render_all, run_with_charts

        config = replace(
            ExperimentConfig(), n_runs=1, device_counts=(40, 80)
        )
        tables, charts = run_with_charts(["7"], config)
        assert "7" in charts
        rendered = render_all(tables, charts)
        assert "*" in charts["7"]
        assert "devices" in rendered

    def test_unknown_target_rejected(self):
        from repro.experiments.runner import run

        with pytest.raises(ValueError):
            run(["fig99"])
