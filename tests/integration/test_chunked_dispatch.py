"""Chunked dispatch equivalence: bit-identical at every grain.

The fused scheduler batches consecutive canonical work items into
chunks (one pool task, one pickle/IPC round trip per chunk) to
amortise dispatch overhead. The contract: for EVERY (chunk size,
worker count) pair — including ``chunk_size=1``, the per-item
submission grain — results are bit-identical to the serial path, the
ledger reduces chunks exactly as it reduces items, and streamed
partials still arrive one per item.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import golden_spec, run_scenario, scenario
from repro.sim.dispatch import (
    FusedScheduler,
    auto_chunk_size,
    execute_items,
)

from metric_items import metric_items, run_fn

#: One single-cell and one multi-cell (fan-out) scenario: chunking must
#: hold across both task shapes, including chunked fan-out sub-items.
GRID_NAMES = ["paper-baseline", "city-rollout"]

#: The dispatch grains the grid pins (None = auto).
CHUNK_SIZES = [1, 2, 5, None]


def draw_run(rng, run_index):
    """Module-level (picklable) run fn for the flat-map grids."""
    return {"draw": float(rng.random()), "index": float(run_index)}


class TestChunkedScenarioGrid:
    @pytest.fixture(scope="class")
    def serial_stats(self):
        return {
            name: run_scenario(golden_spec(scenario(name)), n_runs=3)
            for name in GRID_NAMES
        }

    @pytest.mark.parametrize("name", GRID_NAMES)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_at_every_grain(
        self, serial_stats, name, chunk_size, workers
    ):
        stats = run_scenario(
            golden_spec(scenario(name)),
            n_runs=3,
            backend="fused",
            workers=workers,
            chunk_size=chunk_size,
        )
        serial = serial_stats[name]
        assert set(stats) == set(serial)
        for metric in serial:
            assert (
                serial[metric].values.tolist()
                == stats[metric].values.tolist()
            ), (
                f"{name}: {metric} diverged at chunk_size={chunk_size}, "
                f"workers={workers}"
            )

    def test_chunk_size_one_is_the_per_item_path(self, serial_stats):
        """Grain 1 and the auto grain agree with each other exactly."""
        spec = golden_spec(scenario("city-rollout"))
        per_item = run_scenario(
            spec, n_runs=3, backend="fused", workers=2, chunk_size=1
        )
        auto = run_scenario(spec, n_runs=3, backend="fused", workers=2)
        for metric in per_item:
            assert (
                per_item[metric].values.tolist()
                == auto[metric].values.tolist()
            )


class TestChunkedFlatMaps:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_run_fused_chunked_matches_serial_montecarlo(self, chunk_size):
        serial = run_fn(draw_run, n_runs=7, seed=99)
        per_run = execute_items(
            metric_items(draw_run, seed=99, n_runs=7),
            workers=2,
            chunk_size=chunk_size,
        )
        assert np.array_equal(
            serial["draw"].values,
            np.array([run.metrics["draw"] for run in per_run]),
        )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_run_fused_chunked_is_grain_independent(self, chunk_size):
        items = metric_items(draw_run, 5, 9)
        base = execute_items(items, workers=1, chunk_size=1)
        out = execute_items(items, workers=2, chunk_size=chunk_size)
        assert out == base

    def test_partials_stream_per_item_not_per_chunk(self):
        partials = []
        execute_items(
            metric_items(draw_run, 5, 9),
            workers=1,
            chunk_size=4,
            on_partial=partials.append,
        )
        assert len(partials) == 9
        assert sorted(p.top_index for p in partials) == list(range(9))


class TestChunkConfig:
    def test_auto_chunk_size_targets_four_chunks_per_worker(self):
        assert auto_chunk_size(1, 1) == 1
        assert auto_chunk_size(8, 2) == 1
        assert auto_chunk_size(80, 2) == 10
        assert auto_chunk_size(10_000, 4) == 64  # capped
        assert auto_chunk_size(7, 1) == 2  # ceil(7/4)

    def test_auto_chunk_size_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            auto_chunk_size(0, 1)
        with pytest.raises(ConfigurationError):
            auto_chunk_size(1, 0)

    def test_scheduler_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            FusedScheduler(workers=1, chunk_size=0)

    def test_scheduler_exposes_grain(self):
        assert FusedScheduler(workers=2, chunk_size=3).chunk_size == 3
        assert FusedScheduler(workers=2).chunk_size is None
