"""Unit tests for the (run x cell) task graph and its two drains."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim import dispatch
from repro.sim.dispatch import (
    FanOut,
    TaskAddress,
    WorkItem,
    available_cores,
    derive_task_rng,
    drain,
    drain_inline,
)
from repro.sim.montecarlo import RunOutput
from repro.sim.rng import spawn_generators

from metric_items import metric_items


def draw_run(rng, run_index):
    """Module-level (hence picklable) Monte-Carlo run fn."""
    return {"draw": float(rng.random()), "index": float(run_index)}


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


#: States of the fan-outs aborted in this process, in abort order.
ABORTED = []


def _record_abort(state):
    ABORTED.append(state)


def _every_third_plain_task(rng, address, payload):
    """Item ``i`` returns a plain value when ``i % 3 == 1``, else a
    one-cell fan-out whose abort hook records ``i``."""
    i = address.run_index
    if i % 3 == 1:
        return float(i)
    return FanOut(
        items=(_item(0),),
        reduce_fn=_sum_reduce,
        state=i,
        abort_fn=_record_abort,
    )


def _fail_on_run_one(rng, address, payload):
    if address.run_index == 1:
        raise RuntimeError("cell of run 1 failed")
    return float(rng.random())


def _raise_after_recording(state):
    ABORTED.append(state)
    raise OSError(f"release of {state} failed")


def _fanout_with_failing_cell(rng, address, payload):
    """A one-cell fan-out whose cell raises on run 1; ``payload`` is the
    fan-out's abort hook."""
    i = address.run_index
    return FanOut(
        items=(
            WorkItem(
                address=TaskAddress(address.campaign, i, 0),
                fn=_fail_on_run_one,
                payload=None,
                seed=i,
                spawn_index=0,
            ),
        ),
        reduce_fn=_sum_reduce,
        state=i,
        abort_fn=payload,
    )


def _item(index, fn=_draw_task, seed=0):
    return WorkItem(
        address=TaskAddress("t", index),
        fn=fn,
        payload=None,
        seed=seed,
        spawn_index=index,
    )


class TestAvailableCores:
    def test_affinity_set_counts_not_the_host(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert available_cores() == 2
        pools = []
        monkeypatch.setattr(
            dispatch,
            "_drain_pool",
            lambda items, workers, on_partial: pools.append(workers),
        )
        drain([_item(0)], "fused")
        assert pools == [2]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert available_cores() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cores() == 1


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


def _fused(items, workers, on_partial=None):
    return drain(items, "fused", workers=workers, on_partial=on_partial)


class TestGraph:
    def test_plain_completions_fill_slots_in_canonical_order(self):
        items = [_item(i, seed=4) for i in range(3)]
        graph = dispatch._Graph(items, lambda n_items: 1, None)
        # Land the last item first: slots, not arrival, fix the order.
        for slot in reversed(graph.initial):
            assert graph.land(slot, dispatch._run_slot(slot)) == []
        assert graph.results == [derive_task_rng(4, i).random() for i in range(3)]

    def test_empty_fanout_rejected(self):
        graph = dispatch._Graph([_item(0)], lambda n_items: 1, None)
        (slot,) = graph.initial
        with pytest.raises(ConfigurationError, match="at least one"):
            graph.land(
                slot, [FanOut(items=(), reduce_fn=_sum_reduce, state=0.0)]
            )

    def _open_group(self, graph, k):
        fanout = FanOut(
            items=tuple(_item(p) for p in range(k)),
            reduce_fn=_sum_reduce,
            state=0.0,
        )
        (slot,) = graph.initial
        return graph.land(slot, [fanout])

    def test_nested_fanout_from_sub_rejected(self):
        graph = dispatch._Graph([_item(0)], lambda n_items: 1, None)
        (sub,) = self._open_group(graph, k=1)
        nested = FanOut(
            items=(_item(0),), reduce_fn=_sum_reduce, state=0.0
        )
        with pytest.raises(ConfigurationError, match="nested fan-out"):
            graph.land(sub, [nested])

    def test_group_completes_in_sub_item_order_not_arrival_order(self):
        graph = dispatch._Graph([_item(0)], lambda n_items: 1, None)
        first, middle, last = self._open_group(graph, k=3)
        assert graph.land(last, ["late"]) == []
        assert graph.land(first, ["early"]) == []
        (reduce,) = graph.land(middle, ["middle"])
        assert reduce[-1] == ["early", "middle", "late"]
        assert graph.land(reduce, "reduced") == []
        assert graph.results == ["reduced"]

    def test_reduce_may_not_expand(self):
        graph = dispatch._Graph([_item(0)], lambda n_items: 1, None)
        (sub,) = self._open_group(graph, k=1)
        (reduce,) = graph.land(sub, [1.0])
        nested = FanOut(
            items=(_item(0),), reduce_fn=_sum_reduce, state=0.0
        )
        with pytest.raises(ConfigurationError, match="may not expand"):
            graph.land(reduce, nested)


class TestPoolDrain:
    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            _fused([_item(0)], workers=0)

    @pytest.mark.parametrize("backend", ["serial", "fused"])
    def test_empty_queue_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="no work items"):
            drain([], backend, workers=1)

    def test_unpicklable_task_fn_rejected_up_front(self):
        item = WorkItem(
            address=TaskAddress("t", 0),
            fn=lambda rng, address, payload: 0.0,
            payload=None,
            seed=0,
            spawn_index=0,
        )
        with pytest.raises(ConfigurationError, match="picklable"):
            _fused([item], workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flat_items_match_direct_derivation(self, workers):
        items = [_item(i, seed=99) for i in range(4)]
        results = _fused(items, workers=workers)
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
        results = _fused(items, workers=workers)
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
            _fused([item], workers=1)

    def test_failed_landing_aborts_each_fanout_of_its_chunk_once(self):
        """Nine items at one worker land in chunks of three. A consumer
        that fails on item 1 leaves item 0's fan-out opened and item 2's
        unopened, both in the chunk that never finished landing."""
        ABORTED.clear()
        items = [_item(i, fn=_every_third_plain_task) for i in range(9)]

        def fail(partial):
            raise RuntimeError(f"consumer failed at {partial.top_index}")

        with pytest.raises(RuntimeError, match="failed at 1"):
            _fused(items, workers=1, on_partial=fail)
        assert ABORTED.count(0) == 1
        assert ABORTED.count(2) == 1
        assert len(ABORTED) == len(set(ABORTED))

    def test_workers_fork_with_numpy_ma_imported(self):
        """np.unique's first call imports numpy.ma lazily; the pool drain
        imports it before forking, so a fresh interpreter that ran no
        serial work still hands it to every worker."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys\n"
            "from repro.scenarios import run_scenario, scenario\n"
            "spec = scenario('city-rollout').with_overrides(\n"
            "    n_devices=2000, n_runs=1)\n"
            "run_scenario(spec, backend='fused', workers=2)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True"]


class TestAbortOnFailure:
    """Three runs each open a one-cell fan-out and run 1's cell raises.
    Both drains land every top-level item before any cell (the pool at
    one worker runs the queue in order), so all three fan-outs are open
    when the failure lands."""

    @staticmethod
    def _items(abort_fn):
        return [
            WorkItem(
                address=TaskAddress("fail", i),
                fn=_fanout_with_failing_cell,
                payload=abort_fn,
                seed=0,
                spawn_index=i,
            )
            for i in range(3)
        ]

    @pytest.mark.parametrize("backend", ["serial", "fused"])
    def test_failed_task_aborts_every_opened_fanout_once(self, backend):
        ABORTED.clear()
        with pytest.raises(RuntimeError, match="run 1 failed"):
            drain(self._items(_record_abort), backend, workers=1)
        assert sorted(ABORTED) == [0, 1, 2]

    def test_failing_abort_hook_neither_masks_the_error_nor_stops_the_rest(
        self,
    ):
        ABORTED.clear()
        with pytest.raises(RuntimeError, match="run 1 failed"):
            drain_inline(self._items(_raise_after_recording))
        assert sorted(ABORTED) == [0, 1, 2]


class TestFlatMapAdapters:
    def test_run_fused_matches_serial_spawn_contract(self):
        for workers in (1, 2):
            per_run = _fused(
                metric_items(draw_run, seed=3, n_runs=5), workers=workers
            )
            expected = [
                RunOutput(draw_run(rng, i))
                for i, rng in enumerate(spawn_generators(3, 5))
            ]
            assert per_run == expected

    def test_scenario_items_validate_n_runs(self):
        from repro.scenarios import scenario
        from repro.scenarios.runner import scenario_work_items

        with pytest.raises(ConfigurationError, match="n_runs"):
            scenario_work_items(scenario("paper-baseline"), 1, 0)

    def test_run_fused_matches_inline_drain(self):
        serial = drain_inline(metric_items(draw_run, seed=11, n_runs=3))
        for workers in (1, 2):
            assert _fused(
                metric_items(draw_run, seed=11, n_runs=3), workers=workers
            ) == serial


class TestStreamedPartials:
    def test_top_completions_stream_in_arrival_order(self):
        seen = []
        items = [_item(i) for i in range(3)]
        graph = dispatch._Graph(items, lambda n_items: 1, seen.append)
        late, early, mid = graph.initial[2], graph.initial[0], graph.initial[1]
        graph.land(late, ["late"])
        graph.land(early, ["early"])
        assert [(p.kind, p.top_index, p.value) for p in seen] == [
            ("top", 2, "late"),
            ("top", 0, "early"),
        ]
        # Each landing streams its own completions once, as it lands.
        graph.land(mid, ["mid"])
        assert [p.value for p in seen] == ["late", "early", "mid"]
        assert [p.address for p in seen] == [
            items[2].address, items[0].address, items[1].address
        ]

    def test_fanout_streams_subs_then_reduce(self):
        seen = []
        graph = dispatch._Graph([_item(0)], lambda n_items: 1, seen.append)
        fanout = FanOut(
            items=tuple(_item(p) for p in range(2)),
            reduce_fn=_sum_reduce,
            state=0.0,
        )
        first, second = graph.land(graph.initial[0], [fanout])
        assert seen == []
        graph.land(second, [4.0])
        (reduce,) = graph.land(first, [3.0])
        graph.land(reduce, 7.0)
        assert [(p.kind, p.position) for p in seen] == [
            ("sub", 1),
            ("sub", 0),
            ("reduce", None),
        ]
        assert seen[-1].value == 7.0
        # Streaming never perturbs the canonical outputs.
        assert graph.results == [7.0]

    def test_pool_invokes_on_partial_per_completion(self):
        seen = []
        results = _fused(
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
            _fused(items, workers=1, on_partial=pooled.append)
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
            _fused(items, workers=1)
