"""Fused-backend equivalence: one work queue, bit-identical results.

The fused (run x cell) scheduler drains the same task graph the serial
backend drains in-process. Its contract is exact: for any worker count
and any task completion order, every consumer surface —
``run_scenario``, ``run_sweep``, ``CoordinationEntity.rollout``,
``run_monte_carlo`` — returns arrays bit-identical to the serial path. The result cache is
keyed by deterministic address only, so entries written by one backend
must be hits for every other.
"""

import numpy as np
import pytest

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.multicast.coordination import (
    CoordinationEntity,
    cells_bit_identical,
    partition_fleet,
)
from repro.multicast.payload import FirmwareImage
from repro.scenarios import golden_spec, run_scenario, scenario
from repro.sim.montecarlo import MonteCarlo
from repro.sim.cache import ResultCache
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

#: One single-cell and one multi-cell (fan-out) scenario: the two
#: structurally different task shapes the fused queue schedules.
GRID_NAMES = ["paper-baseline", "city-rollout"]


def draw_run(rng, run_index):
    """Module-level (picklable) run fn for the cache regression."""
    return {"draw": float(rng.random()), "index": float(run_index)}


def failing_run(rng, run_index):
    raise AssertionError("must not execute on a cache hit")


def _assert_stats_bit_identical(serial, other, label):
    assert set(serial) == set(other)
    for metric, stats in serial.items():
        assert (
            stats.values.tolist() == other[metric].values.tolist()
        ), f"{label}: metric {metric} diverged from serial"


class TestScenarioBitIdentityGrid:
    @pytest.fixture(scope="class")
    def serial_stats(self):
        return {
            name: {
                n_runs: run_scenario(
                    golden_spec(scenario(name)), n_runs=n_runs
                )
                for n_runs in (1, 3)
            }
            for name in GRID_NAMES
        }

    @pytest.mark.parametrize("name", GRID_NAMES)
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_fused_bit_identical_to_serial(
        self, serial_stats, name, workers, n_runs
    ):
        fused = run_scenario(
            golden_spec(scenario(name)),
            backend="fused",
            workers=workers,
            n_runs=n_runs,
        )
        _assert_stats_bit_identical(
            serial_stats[name][n_runs],
            fused,
            f"{name} fused workers={workers} n_runs={n_runs}",
        )


class TestSweepFused:
    def test_fused_sweep_bit_identical_to_serial(self):
        from repro.scenarios import SweepAxis, run_sweep

        specs = [
            golden_spec(scenario("paper-baseline")).with_overrides(
                n_devices=40
            ),
            golden_spec(scenario("skewed-cells")).with_overrides(
                n_devices=60
            ),
        ]
        axes = [SweepAxis("devices", (30, 60))]
        serial = run_sweep(specs, axes, backend="serial", n_runs=2)
        fused = run_sweep(
            specs, axes, backend="fused", workers=2, n_runs=2
        )
        assert len(serial) == len(fused) == 4
        for (cell_s, stats_s), (cell_f, stats_f) in zip(serial, fused):
            assert cell_s.coordinates == cell_f.coordinates
            _assert_stats_bit_identical(
                stats_s, stats_f, f"sweep cell {cell_s.coordinates}"
            )

    def test_fused_sweep_answers_cached_cells_from_cache(self, tmp_path):
        from repro.scenarios import SweepAxis, run_sweep

        specs = [
            golden_spec(scenario("paper-baseline")).with_overrides(
                n_devices=40
            )
        ]
        axes = [SweepAxis("devices", (30, 50))]
        cache = ResultCache(tmp_path)
        first = run_sweep(
            specs, axes, backend="serial", n_runs=2, cache=cache
        )
        entries = sorted(p.name for p in tmp_path.iterdir())
        assert entries, "serial sweep must populate the cache"
        fused = run_sweep(
            specs, axes, backend="fused", workers=2, n_runs=2, cache=cache
        )
        # Same deterministic addresses: nothing new written, same stats.
        assert sorted(p.name for p in tmp_path.iterdir()) == entries
        for (cell_a, stats_a), (cell_b, stats_b) in zip(first, fused):
            assert cell_a.coordinates == cell_b.coordinates
            _assert_stats_bit_identical(
                stats_a, stats_b, f"cached cell {cell_a.coordinates}"
            )


class TestRolloutFused:
    @pytest.fixture(scope="class")
    def campaign(self):
        rng = np.random.default_rng(20180702)
        fleet = generate_fleet(60, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 4, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=120_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        return cells, image, context

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fused_rollout_bit_identical_to_serial(self, campaign, workers):
        cells, image, context = campaign
        entity = CoordinationEntity(DrScMechanism())
        serial = entity.rollout(cells, image, context, seed=7)
        fused = entity.rollout(
            cells, image, context, seed=7, backend="fused", workers=workers
        )
        assert len(serial.campaigns) == len(fused.campaigns)
        for a, b in zip(serial.campaigns, fused.campaigns):
            assert cells_bit_identical(a, b), f"cell {a.cell_id} differs"


class TestCacheIsBackendAgnostic:
    """The PR 8 cache contract: the key is the deterministic address
    (tag, fingerprint, seed, n_runs) — whoever computed it."""

    BACKENDS = [("serial", None), ("fused", 1), ("fused", 2)]

    @pytest.mark.parametrize("writer,writer_workers", BACKENDS)
    def test_any_backend_hit_by_every_other(
        self, tmp_path, writer, writer_workers
    ):
        cache = ResultCache(tmp_path)
        written = MonteCarlo(
            n_runs=4,
            seed=7,
            backend=writer,
            workers=writer_workers,
            cache=cache,
        ).run(draw_run, cache_tag="t", config_fingerprint="f")
        for reader, reader_workers in self.BACKENDS:
            hit = MonteCarlo(
                n_runs=4,
                seed=7,
                backend=reader,
                workers=reader_workers,
                cache=cache,
            ).run(failing_run, cache_tag="t", config_fingerprint="f")
            assert set(hit) == set(written)
            for metric in written:
                np.testing.assert_array_equal(
                    hit[metric].values,
                    written[metric].values,
                    err_msg=f"{writer}->{reader} cache round-trip",
                )
