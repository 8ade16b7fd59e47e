"""Multi-cell execution-path equivalence.

A multi-cell campaign runs on the scenario runner: one prologue task
per run draws the attachments and fans out one task per populated
cell. Drained in-process or on the fused pool, a recorded run must give
equal metric dicts and event-identical cell logs for any worker count,
and the multi-cell scenarios must run through both backends with
identical metric arrays.
"""

from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.multicast.coordination import MultiCellSpec
from repro.scenarios import ScenarioSpec, golden_spec, run_scenario, scenario
from repro.scenarios.runner import scenario_work_items
from repro.sim.dispatch import drain
from repro.sim.eventlog import diff_runlogs, replay_strict


def _recorded_run(spec, backend, workers=None):
    (output,) = drain(
        scenario_work_items(spec, spec.seed, 1), backend, workers=workers
    )
    return output


def _spec(mechanism):
    return ScenarioSpec(
        name="multicell-equivalence",
        n_devices=160,
        mixture="moderate-edrx",
        mechanism=mechanism,
        payload_bytes=200_000,
        segment_loss_probability=0.05,
        cells=MultiCellSpec(n_cells=8),
        n_runs=1,
        seed=7,
        record_events=True,
    )


def _assert_runs_identical(left, right):
    assert left.metrics == right.metrics
    diff = diff_runlogs(left.runlog, right.runlog)
    assert diff.is_empty, "cell logs differ between backends"


class TestRecordedRunBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_run(self):
        return _recorded_run(_spec("dr-sc"), "serial")

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_fused_identical_for_any_worker_count(self, serial_run, workers):
        fused = _recorded_run(_spec("dr-sc"), "fused", workers=workers)
        _assert_runs_identical(serial_run, fused)

    def test_dasc_fused_matches_serial(self):
        spec = _spec("da-sc")
        _assert_runs_identical(
            _recorded_run(spec, "serial"),
            _recorded_run(spec, "fused", workers=3),
        )


class TestRecordedRunTotals:
    """A recorded run's metrics are the fold of its per-cell campaigns."""

    @pytest.fixture(scope="class")
    def drsc_run(self):
        return _recorded_run(_spec("dr-sc"), "serial")

    @staticmethod
    def _cell_results(run):
        return [
            replay_strict(run.runlog.cells[cell_id])
            for cell_id in sorted(run.runlog.cells)
        ]

    def test_drsc_transmissions_sum_over_cells(self, drsc_run):
        results = self._cell_results(drsc_run)
        assert drsc_run.metrics["transmissions"] == sum(
            result.n_transmissions for result in results
        )
        assert drsc_run.metrics["transmissions"] >= len(results)
        assert drsc_run.metrics["n_cells"] == len(results)
        assert sum(len(result) for result in results) == 160

    def test_totals_aggregate_cells(self, drsc_run):
        results = self._cell_results(drsc_run)
        metrics = drsc_run.metrics
        expected_wait = sum(
            result.mean_wait_s * len(result) for result in results
        ) / 160
        assert metrics["mean_wait_s"] == pytest.approx(expected_wait)
        # No group outgrows the largest cell it was planned in.
        assert 1 <= metrics["largest_group"] <= max(
            len(result) for result in results
        )
        for name in ("energy_mj", "light_sleep_s", "connected_s"):
            total = sum(getattr(result.fleet, name) for result in results)
            assert metrics[name] == pytest.approx(total, rel=1e-12)
            assert metrics[name] > 0

    def test_seeded_run_reproducible(self, drsc_run):
        again = _recorded_run(_spec("dr-sc"), "serial")
        _assert_runs_identical(drsc_run, again)

    def test_seed_changes_the_run(self, drsc_run):
        other = _recorded_run(replace(_spec("dr-sc"), seed=8), "serial")
        assert not diff_runlogs(drsc_run.runlog, other.runlog).is_empty


class TestMulticellVerb:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fused_verify_passes(self, workers, capsys):
        code = main([
            "multicell", "--devices", "60", "--cells", "4",
            "--payload", "120000", "--backend", "fused",
            "--workers", workers, "--verify",
        ])
        assert code == 0
        assert "verified: fused == serial per cell" in capsys.readouterr().out

    def test_serial_verify_passes(self, capsys):
        code = main([
            "multicell", "--devices", "60", "--cells", "4",
            "--payload", "120000", "--verify",
        ])
        assert code == 0
        assert "verified: serial == fused per cell" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--cells", "0"), "at least one cell"),
            (("--payload", "0"), "payload must be"),
        ],
    )
    def test_empty_campaign_rejected(self, flags, message):
        with pytest.raises(ConfigurationError, match=message):
            main(["multicell", "--devices", "10", *flags])


class TestMultiCellScenarios:
    @pytest.mark.parametrize("name", ["city-rollout", "skewed-cells"])
    def test_monte_carlo_backends_agree(self, name):
        spec = golden_spec(scenario(name))
        serial = run_scenario(spec)
        fused = run_scenario(spec, backend="fused", workers=2)
        assert set(serial) == set(fused)
        for metric, stats in serial.items():
            assert (
                stats.values.tolist() == fused[metric].values.tolist()
            ), f"{name}.{metric} differs between serial and fused backends"

    def test_multicell_metrics_report_cells(self):
        spec = golden_spec(scenario("city-rollout"))
        stats = run_scenario(spec)
        assert stats["n_cells"].max <= spec.cells.n_cells
        assert stats["n_cells"].min >= 1
        # A 16-cell campaign needs at least one transmission per
        # populated cell.
        assert stats["transmissions"].min >= stats["n_cells"].min

    def test_dasc_one_transmission_per_populated_cell(self):
        spec = golden_spec(scenario("skewed-cells"))
        assert spec.mechanism == "da-sc"
        stats = run_scenario(spec)
        assert (
            stats["transmissions"].values.tolist()
            == stats["n_cells"].values.tolist()
        )
