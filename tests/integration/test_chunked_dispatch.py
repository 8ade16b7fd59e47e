"""Chunked dispatch equivalence: bit-identical at every worker count.

The fused pool batches consecutive canonical work items into chunks of
:func:`~repro.sim.dispatch.dispatch_grain` items (one pool task, one
pickle/IPC round trip per chunk) to amortise dispatch overhead. The
contract: at every worker count results are bit-identical to the
serial path, chunks land exactly as single items do, and streamed
partials still arrive one per item. Both run counts below make the
grain 3 at one worker, 2 at two workers and 1 (the per-item
submission) at three, so chunks are really cut and the grains differ;
between them, each grain above 1 is cut both evenly and with a short
last chunk.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import golden_spec, run_scenario, scenario
from repro.sim import dispatch
from repro.sim.dispatch import (
    FanOut,
    TaskAddress,
    WorkItem,
    derive_task_rng,
    dispatch_grain,
    drain,
    drain_inline,
)

from metric_items import metric_items, run_fn

#: One single-cell and one multi-cell (fan-out) scenario: chunking must
#: hold across both task shapes, including chunked fan-out sub-items.
GRID_NAMES = ["paper-baseline", "city-rollout"]

#: Worker counts the grid pins.
WORKERS = [1, 2, 3]

#: Runs per campaign in the flat-map grids.
N_RUNS = 9

#: Runs per campaign in the scenario grid: 9 cuts grain 3 evenly and
#: grain 2 with a short last chunk, 10 the other way round.
RUN_COUNTS = [9, 10]


def draw_run(rng, run_index):
    """Module-level (picklable) run fn for the flat-map grids."""
    return {"draw": float(rng.random()), "index": float(run_index)}


def _draw_task(rng, address, payload):
    return float(rng.random())


def _sum_reduce(state, results, address):
    return float(state) + float(sum(results))


def _fanout_task(rng, address, payload):
    """Top-level task fanning out into ``payload`` per-cell draws."""
    items = tuple(
        WorkItem(
            address=TaskAddress(address.campaign, address.run_index, j),
            fn=_draw_task,
            payload=None,
            seed=1000 + address.run_index,
            spawn_index=j,
        )
        for j in range(payload)
    )
    return FanOut(items=items, reduce_fn=_sum_reduce, state=0.0)


def _item(index, fn=_draw_task, payload=None, seed=3):
    return WorkItem(
        address=TaskAddress("t", index),
        fn=fn,
        payload=payload,
        seed=seed,
        spawn_index=index,
    )


@pytest.fixture
def submitted(monkeypatch):
    """The slots the pool drain submits, in submission order."""
    slots = []

    class RecordingPool(dispatch.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            slots.append(args[0])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(dispatch, "ProcessPoolExecutor", RecordingPool)
    return slots


def test_grid_run_count_cuts_every_grain():
    for n_runs in [N_RUNS] + RUN_COUNTS:
        grains = [dispatch_grain(n_runs, workers) for workers in WORKERS]
        assert grains == [3, 2, 1]
    for grain in (3, 2):
        assert {n_runs % grain == 0 for n_runs in RUN_COUNTS} == {
            True,
            False,
        }


class TestChunkedScenarioGrid:
    @pytest.fixture(scope="class")
    def serial_stats(self):
        return {
            (name, n_runs): run_scenario(
                golden_spec(scenario(name)), n_runs=n_runs
            )
            for name in GRID_NAMES
            for n_runs in RUN_COUNTS
        }

    @pytest.mark.parametrize("name", GRID_NAMES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("n_runs", RUN_COUNTS)
    def test_bit_identical_at_every_worker_count(
        self, serial_stats, name, workers, n_runs
    ):
        stats = run_scenario(
            golden_spec(scenario(name)),
            n_runs=n_runs,
            backend="fused",
            workers=workers,
        )
        serial = serial_stats[name, n_runs]
        assert set(stats) == set(serial)
        for metric in serial:
            assert (
                serial[metric].values.tolist()
                == stats[metric].values.tolist()
            ), (
                f"{name}: {metric} diverged at workers={workers}, "
                f"n_runs={n_runs}"
            )


class TestChunkedFlatMaps:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_fused_chunked_matches_serial_montecarlo(self, workers):
        serial = run_fn(draw_run, n_runs=N_RUNS, seed=99)
        per_run = drain(
            metric_items(draw_run, seed=99, n_runs=N_RUNS),
            "fused",
            workers=workers,
        )
        assert np.array_equal(
            serial["draw"].values,
            np.array([run.metrics["draw"] for run in per_run]),
        )

    @pytest.mark.parametrize("n_runs", [1, 4, 9, 17, 40])
    def test_fused_chunked_is_grain_independent(self, n_runs):
        """Run ``i`` is the same value whatever chunk it rides in: at
        two workers these run counts cut grains 1, 1, 2, 3 and 5."""
        longest = drain_inline(metric_items(draw_run, 5, 40))
        out = drain(metric_items(draw_run, 5, n_runs), "fused", workers=2)
        assert out == longest[:n_runs]

    def test_partials_stream_per_item_not_per_chunk(self):
        partials = []
        drain(
            metric_items(draw_run, 5, N_RUNS),
            "fused",
            workers=1,
            on_partial=partials.append,
        )
        assert len(partials) == N_RUNS
        assert [p.top_index for p in partials] == list(range(N_RUNS))


class TestChunkedSubmission:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_pool_submits_one_task_per_chunk(self, submitted, workers):
        items = [_item(i) for i in range(N_RUNS)]
        results = drain(items, "fused", workers=workers)
        grain = dispatch_grain(N_RUNS, workers)
        assert [slot[0] for slot in submitted] == ["top"] * len(submitted)
        assert [slot[1] for slot in submitted] == list(
            range(0, N_RUNS, grain)
        )
        assert [item for slot in submitted for item in slot[2]] == items
        assert results == [derive_task_rng(3, i).random() for i in range(9)]

    def test_fanout_sub_items_submit_in_chunks(self, submitted):
        """One run fanning out into nine cells at two workers: one top
        task, the cells in chunks of dispatch_grain(9, 2) = 2, then the
        reduction."""
        (result,) = drain(
            [_item(0, fn=_fanout_task, payload=N_RUNS)], "fused", workers=2
        )
        assert [slot[0] for slot in submitted] == (
            ["top"] + ["sub"] * 5 + ["reduce"]
        )
        assert [slot[2] for slot in submitted[1:-1]] == [0, 2, 4, 6, 8]
        cells = [item for slot in submitted[1:-1] for item in slot[3]]
        assert [item.address.cell_index for item in cells] == list(range(9))
        assert result == sum(
            derive_task_rng(1000, j).random() for j in range(N_RUNS)
        )


class TestChunkConfig:
    def test_dispatch_grain_targets_four_chunks_per_worker(self):
        assert dispatch_grain(1, 1) == 1
        assert dispatch_grain(8, 2) == 1
        assert dispatch_grain(80, 2) == 10
        assert dispatch_grain(10_000, 4) == 64  # capped
        assert dispatch_grain(7, 1) == 2  # ceil(7/4)

    def test_dispatch_grain_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            dispatch_grain(0, 1)
        with pytest.raises(ConfigurationError):
            dispatch_grain(1, 0)
