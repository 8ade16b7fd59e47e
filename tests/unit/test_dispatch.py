"""Unit tests for the (run x cell) task graph and its two drains."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.dispatch import (
    FanOut,
    FusedScheduler,
    ReductionLedger,
    TaskAddress,
    WorkItem,
    derive_task_rng,
    drain_inline,
    execute_items,
    map_items,
    run_items,
)
from repro.sim.rng import spawn_generators


def draw_run(rng, run_index):
    """Module-level (hence picklable) Monte-Carlo run fn."""
    return {"draw": float(rng.random()), "index": float(run_index)}


def draw_item(rng, index, item):
    """Module-level map fn: fn(rng, item_index, item)."""
    return float(rng.random()) + item


def _noop_task(rng, address, payload):  # pragma: no cover - never runs
    return None


def _draw_task(rng, address, payload):
    return float(rng.random())


def _sum_reduce(state, results, address):
    return float(state) + float(sum(results))


#: Seed base the fan-out tasks derive their per-cell children from.
CELL_SEED_BASE = 5000


def _fanout_task(rng, address, payload):
    """Top-level task: draw a base value, fan out into per-cell draws."""
    n_cells = payload
    base = float(rng.random())
    items = tuple(
        WorkItem(
            address=TaskAddress(address.campaign, address.run_index, j),
            fn=_draw_task,
            payload=None,
            seed=CELL_SEED_BASE + address.run_index,
            spawn_index=j,
        )
        for j in range(n_cells)
    )
    return FanOut(items=items, reduce_fn=_sum_reduce, state=base)


def _nested_sub_task(rng, address, payload):
    """A sub-task that illegally tries to fan out again."""
    return FanOut(
        items=(
            WorkItem(
                address=TaskAddress("illegal", 0, 0),
                fn=_draw_task,
                payload=None,
                seed=0,
                spawn_index=0,
            ),
        ),
        reduce_fn=_sum_reduce,
        state=0.0,
    )


def _fanout_once_task(rng, address, payload):
    """Top-level task fanning out into a single nested-fan-out sub."""
    return FanOut(
        items=(
            WorkItem(
                address=TaskAddress(address.campaign, address.run_index, 0),
                fn=_nested_sub_task,
                payload=None,
                seed=1,
                spawn_index=0,
            ),
        ),
        reduce_fn=_sum_reduce,
        state=0.0,
    )


def _item(index, fn=_draw_task, seed=0):
    return WorkItem(
        address=TaskAddress("t", index),
        fn=fn,
        payload=None,
        seed=seed,
        spawn_index=index,
    )


class TestTaskAddress:
    def test_str_forms(self):
        assert str(TaskAddress("sweep", 3)) == "sweep/run3"
        assert str(TaskAddress("sweep", 3, 7)) == "sweep/run3/cell7"
        assert str(TaskAddress("c", 0, 0)) == "c/run0/cell0"


class TestDeriveTaskRng:
    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_independent_of_sibling_count(self, seed):
        """Child i is the same generator whether 5 or i+1 siblings
        were spawned — the contract the fused backend rests on."""
        siblings = spawn_generators(seed, 5)
        for i, sibling in enumerate(siblings):
            np.testing.assert_array_equal(
                derive_task_rng(seed, i).random(8), sibling.random(8)
            )

    def test_matches_rollout_cell_children(self):
        children = np.random.SeedSequence(42).spawn(3)
        for i, child in enumerate(children):
            np.testing.assert_array_equal(
                derive_task_rng(42, i).random(4),
                np.random.default_rng(child).random(4),
            )

    def test_negative_spawn_index_rejected(self):
        with pytest.raises(ConfigurationError, match="spawn_index"):
            derive_task_rng(1, -1)


class TestReductionLedger:
    def test_needs_at_least_one_top_task(self):
        with pytest.raises(ConfigurationError, match=">= 1 top-level"):
            ReductionLedger(0)

    def test_plain_completions_fill_slots_in_canonical_order(self):
        ledger = ReductionLedger(3)
        assert ledger.complete_top(2, "c") is None
        assert not ledger.done
        assert ledger.complete_top(0, "a") is None
        assert ledger.complete_top(1, "b") is None
        assert ledger.done
        assert ledger.results() == ["a", "b", "c"]

    def test_results_refused_while_incomplete(self):
        ledger = ReductionLedger(2)
        ledger.complete_top(0, "a")
        with pytest.raises(ConfigurationError, match="incomplete"):
            ledger.results()

    def test_top_index_out_of_range(self):
        ledger = ReductionLedger(1)
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.complete_top(1, "x")
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.complete_top(-1, "x")

    def test_double_top_completion_rejected(self):
        ledger = ReductionLedger(1)
        ledger.complete_top(0, "x")
        with pytest.raises(ConfigurationError, match="completed twice"):
            ledger.complete_top(0, "y")

    def test_empty_fanout_rejected(self):
        ledger = ReductionLedger(1)
        with pytest.raises(ConfigurationError, match="at least one"):
            ledger.complete_top(
                0, FanOut(items=(), reduce_fn=_sum_reduce, state=0.0)
            )

    def _open_group(self, ledger, index=0, k=2):
        fanout = FanOut(
            items=tuple(_item(p) for p in range(k)),
            reduce_fn=_sum_reduce,
            state=0.0,
        )
        assert ledger.complete_top(index, fanout) is fanout
        return fanout

    def test_sub_completion_without_open_group(self):
        ledger = ReductionLedger(1)
        with pytest.raises(ConfigurationError, match="no open fan-out"):
            ledger.complete_sub(0, 0, 1.0)

    def test_nested_fanout_from_sub_rejected(self):
        ledger = ReductionLedger(1)
        self._open_group(ledger)
        nested = FanOut(
            items=(_item(0),), reduce_fn=_sum_reduce, state=0.0
        )
        with pytest.raises(ConfigurationError, match="nested fan-out"):
            ledger.complete_sub(0, 0, nested)

    def test_sub_position_out_of_range_and_double(self):
        ledger = ReductionLedger(1)
        self._open_group(ledger, k=2)
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.complete_sub(0, 2, 1.0)
        assert ledger.complete_sub(0, 1, 1.0) is None
        with pytest.raises(ConfigurationError, match="completed twice"):
            ledger.complete_sub(0, 1, 2.0)

    def test_group_completes_in_sub_item_order_not_arrival_order(self):
        ledger = ReductionLedger(1)
        self._open_group(ledger, k=3)
        assert ledger.complete_sub(0, 2, "late") is None
        assert ledger.complete_sub(0, 0, "early") is None
        ready = ledger.complete_sub(0, 1, "middle")
        assert ready is not None
        assert ready.top_index == 0
        assert ready.results == ["early", "middle", "late"]
        assert not ledger.done
        ledger.complete_reduce(0, "reduced")
        assert ledger.done
        assert ledger.results() == ["reduced"]

    def test_reduce_into_filled_slot_rejected(self):
        ledger = ReductionLedger(2)
        ledger.complete_top(0, "x")
        with pytest.raises(ConfigurationError, match="completed twice"):
            ledger.complete_reduce(0, "y")
        with pytest.raises(ConfigurationError, match="out of range"):
            ledger.complete_reduce(5, "y")

    def test_reduce_may_not_expand(self):
        ledger = ReductionLedger(1)
        self._open_group(ledger, k=1)
        ledger.complete_sub(0, 0, 1.0)
        nested = FanOut(
            items=(_item(0),), reduce_fn=_sum_reduce, state=0.0
        )
        with pytest.raises(ConfigurationError, match="may not expand"):
            ledger.complete_reduce(0, nested)


class TestFusedScheduler:
    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            FusedScheduler(workers=0)

    def test_empty_queue_rejected(self):
        with pytest.raises(ConfigurationError, match="no work items"):
            FusedScheduler(workers=1).run([])

    def test_unpicklable_task_fn_rejected_up_front(self):
        item = WorkItem(
            address=TaskAddress("t", 0),
            fn=lambda rng, address, payload: 0.0,
            payload=None,
            seed=0,
            spawn_index=0,
        )
        with pytest.raises(ConfigurationError, match="picklable"):
            FusedScheduler(workers=1).run([item])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flat_items_match_direct_derivation(self, workers):
        items = [_item(i, seed=99) for i in range(4)]
        results = execute_items(items, workers=workers)
        expected = [derive_task_rng(99, i).random() for i in range(4)]
        assert results == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fanout_reduces_in_canonical_order(self, workers):
        n_runs, n_cells, seed = 3, 3, 17
        items = [
            WorkItem(
                address=TaskAddress("fan", i),
                fn=_fanout_task,
                payload=n_cells,
                seed=seed,
                spawn_index=i,
            )
            for i in range(n_runs)
        ]
        results = execute_items(items, workers=workers)
        expected = [
            derive_task_rng(seed, i).random()
            + sum(
                derive_task_rng(CELL_SEED_BASE + i, j).random()
                for j in range(n_cells)
            )
            for i in range(n_runs)
        ]
        assert results == expected

    def test_nested_fanout_fails_the_dispatch(self):
        item = WorkItem(
            address=TaskAddress("fan", 0),
            fn=_fanout_once_task,
            payload=None,
            seed=0,
            spawn_index=0,
        )
        with pytest.raises(ConfigurationError, match="nested fan-out"):
            execute_items([item], workers=1)


class TestFlatMapAdapters:
    def test_run_fused_matches_serial_spawn_contract(self):
        for workers in (1, 2):
            per_run = execute_items(
                run_items(draw_run, seed=3, n_runs=5), workers=workers
            )
            expected = [
                draw_run(rng, i)
                for i, rng in enumerate(spawn_generators(3, 5))
            ]
            assert per_run == expected

    def test_run_fused_validates_n_runs(self):
        with pytest.raises(ConfigurationError, match="n_runs"):
            run_items(draw_run, seed=1, n_runs=0)

    def test_map_fused_matches_inline_drain(self):
        items = [10.0, 20.0, 30.0]
        serial = drain_inline(map_items(draw_item, 11, items))
        for workers in (1, 2):
            assert execute_items(
                map_items(draw_item, 11, items), workers=workers
            ) == serial

    def test_map_fused_cell_ids_label_addresses(self):
        items = [1.0, 2.0]
        with pytest.raises(ConfigurationError, match="cell ids"):
            map_items(draw_item, 1, items, cell_ids=[0])
        # Matching labels change only the address, never the result.
        assert execute_items(
            map_items(draw_item, 1, items, cell_ids=[4, 9]), workers=1
        ) == drain_inline(map_items(draw_item, 1, items))

    def test_map_fused_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="no items"):
            map_items(draw_item, 1, [])


class TestStreamedPartials:
    def test_top_completions_stream_in_arrival_order(self):
        ledger = ReductionLedger(3)
        ledger.complete_top(2, "late")
        ledger.complete_top(0, "early")
        partials = list(ledger.partial_results())
        assert [(p.kind, p.top_index, p.value) for p in partials] == [
            ("top", 2, "late"),
            ("top", 0, "early"),
        ]
        # Draining is destructive: nothing new, nothing repeated.
        assert list(ledger.partial_results()) == []
        ledger.complete_top(1, "mid")
        assert [p.value for p in ledger.partial_results()] == ["mid"]

    def test_fanout_streams_subs_then_reduce(self):
        ledger = ReductionLedger(1)
        fanout = FanOut(
            items=tuple(_item(p) for p in range(2)),
            reduce_fn=_sum_reduce,
            state=0.0,
        )
        ledger.complete_top(0, fanout)
        ledger.complete_sub(0, 1, 4.0)
        ledger.complete_sub(0, 0, 3.0)
        ledger.complete_reduce(0, 7.0)
        partials = list(ledger.partial_results())
        assert [(p.kind, p.position) for p in partials] == [
            ("sub", 1),
            ("sub", 0),
            ("reduce", None),
        ]
        assert partials[-1].value == 7.0
        # Streaming never perturbs the canonical outputs.
        assert ledger.results() == [7.0]

    def test_scheduler_invokes_on_partial_per_completion(self):
        seen = []
        results = execute_items(
            [_item(i, seed=7) for i in range(3)],
            workers=1,
            on_partial=seen.append,
        )
        assert [p.value for p in seen] == results
        assert all(p.kind == "top" for p in seen)
        assert sorted(p.top_index for p in seen) == [0, 1, 2]

    def test_inline_drain_streams_what_one_worker_streams(self):
        items = [
            WorkItem(
                address=TaskAddress("fan", run),
                fn=_fanout_task,
                payload=3,
                seed=11,
                spawn_index=run,
            )
            for run in range(3)
        ]
        inline, pooled = [], []
        assert drain_inline(items, on_partial=inline.append) == (
            execute_items(items, workers=1, on_partial=pooled.append)
        )
        assert inline == pooled
        assert [(p.kind, p.top_index) for p in inline] == (
            [("sub", run) for run in range(3) for _ in range(3)]
            + [("reduce", run) for run in range(3)]
        )


class TestPicklabilityValidation:
    def test_shared_fn_pickled_once(self, monkeypatch):
        import repro.sim.dispatch as dispatch_module

        calls = []
        real_dumps = pickle.dumps

        class CountingPickle:
            @staticmethod
            def dumps(obj):
                calls.append(obj)
                return real_dumps(obj)

        monkeypatch.setattr(dispatch_module, "pickle", CountingPickle)
        items = [_item(i, seed=1) for i in range(50)]
        dispatch_module._validate_picklable(items)
        assert len(calls) == 1

    def test_distinct_unpicklable_fn_still_caught(self):
        items = [
            _item(0, seed=1),
            WorkItem(
                address=TaskAddress("t", 1),
                fn=lambda rng, address, payload: 0.0,
                payload=None,
                seed=1,
                spawn_index=1,
            ),
        ]
        with pytest.raises(ConfigurationError, match="picklable"):
            FusedScheduler(workers=1).run(items)
