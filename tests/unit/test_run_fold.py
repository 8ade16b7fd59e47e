"""The one run fold: every path builds a run's metric dict with it."""

import pytest

from repro.devices.battery import Battery
from repro.multicast.reliability import RepairOutcome
from repro.scenarios.runner import CellSummary, FleetFacts, fold_run


def _cell(cell_id, fleet_size, mean_wait_s, energy_mj=10.0):
    return CellSummary(
        cell_id=cell_id,
        fleet_size=fleet_size,
        n_transmissions=2,
        largest_group=fleet_size,
        mean_wait_s=mean_wait_s,
        light_sleep_s=1.5,
        connected_s=0.25,
        energy_mj=energy_mj,
    )


def _repair(fleet_size, segments=4, rounds=1):
    return RepairOutcome(
        rounds=rounds,
        segments_sent=segments,
        devices_complete=fleet_size,
        residual_missing=0,
    )


FLEET = FleetFacts(battery=Battery(capacity_mah=1000.0), deep_devices=1)


class TestFoldRun:
    def test_lone_cell_mean_wait_passes_through_unchanged(self):
        # 0.1 * 3 / 3 == 0.10000000000000002: re-weighting a lone cell
        # would not be bit-identical to the cell's own mean.
        assert 0.1 * 3 / 3 != 0.1
        metrics = fold_run(
            [_cell(0, 3, 0.1)], [_repair(3)], multi_cell=False, fleet=FLEET
        )
        assert metrics["mean_wait_s"] == 0.1

    def test_multi_cell_weights_means_by_devices(self):
        cells = [_cell(0, 1, 1.0), _cell(1, 3, 3.0)]
        metrics = fold_run(
            cells, [_repair(1), _repair(3, rounds=2)], multi_cell=True,
            fleet=FLEET,
        )
        assert metrics["mean_wait_s"] == (1.0 * 1 + 3.0 * 3) / 4
        assert metrics["transmissions"] == 4.0
        assert metrics["largest_group"] == 3.0
        assert metrics["segments_sent"] == 8.0
        assert metrics["repair_rounds"] == 2.0
        assert metrics["delivered_fraction"] == 1.0
        assert metrics["deep_coverage_share"] == 0.25
        assert metrics["n_cells"] == 2.0

    def test_n_cells_only_in_multi_cell_dicts(self):
        single = fold_run(
            [_cell(0, 3, 0.5)], [_repair(3)], multi_cell=False, fleet=FLEET
        )
        assert "n_cells" not in single

    def test_without_fleet_facts_only_log_derivable_metrics(self):
        metrics = fold_run(
            [_cell(0, 3, 0.5)], [_repair(3)], multi_cell=False
        )
        assert set(metrics) == {
            "transmissions",
            "largest_group",
            "mean_wait_s",
            "light_sleep_s",
            "connected_s",
            "uptime_s",
            "energy_mj",
            "segments_sent",
            "repair_rounds",
        }

    def test_single_cell_fold_rejects_several_cells(self):
        with pytest.raises(ValueError):
            fold_run(
                [_cell(0, 1, 1.0), _cell(1, 1, 1.0)],
                [_repair(1), _repair(1)],
                multi_cell=False,
            )
