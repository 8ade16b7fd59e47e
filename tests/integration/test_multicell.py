"""Multi-cell execution-path equivalence.

The coordination layer's fused backend must be bit-identical to the
serial path per cell for any worker count — the same contract the
Monte-Carlo backends honour — and the multi-cell scenarios must run
through both Monte-Carlo backends with identical metric arrays.
"""

import numpy as np
import pytest

from repro.core import DaScMechanism, DrScMechanism
from repro.core.base import PlanningContext
from repro.multicast.coordination import (
    CoordinationEntity,
    cells_bit_identical,
    partition_fleet,
)
from repro.multicast.payload import FirmwareImage
from repro.scenarios import golden_spec, run_scenario, scenario
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _assert_cells_bit_identical(left, right):
    assert len(left.campaigns) == len(right.campaigns)
    for a, b in zip(left.campaigns, right.campaigns):
        assert cells_bit_identical(a, b), f"cell {a.cell_id} differs"


class TestRolloutBackendEquivalence:
    @pytest.fixture(scope="class")
    def campaign(self):
        rng = np.random.default_rng(20180702)
        fleet = generate_fleet(160, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 8, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=200_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        return cells, image, context

    @pytest.fixture(scope="class")
    def serial_report(self, campaign):
        cells, image, context = campaign
        return CoordinationEntity(DrScMechanism()).rollout(
            cells, image, context, seed=7
        )

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_fused_bit_identical_for_any_worker_count(
        self, campaign, serial_report, workers
    ):
        cells, image, context = campaign
        fused = CoordinationEntity(DrScMechanism()).rollout(
            cells, image, context, seed=7, backend="fused", workers=workers
        )
        _assert_cells_bit_identical(serial_report, fused)

    def test_dasc_fused_matches_serial(self, campaign):
        cells, image, context = campaign
        entity = CoordinationEntity(DaScMechanism())
        serial = entity.rollout(cells, image, context, seed=11)
        fused = entity.rollout(
            cells, image, context, seed=11, backend="fused", workers=3
        )
        _assert_cells_bit_identical(serial, fused)


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
