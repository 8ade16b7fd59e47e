"""The (run x cell) task graph and its two drains.

Every Monte-Carlo campaign — a scenario's runs and the cells each
multi-cell run fans out into, a figure's comparison runs, a whole sweep
grid — is expressed as one list of :class:`WorkItem` objects, drained
by :func:`drain` on the ``backend`` every public entry point takes
(:data:`BACKENDS`):

* ``serial`` — :func:`drain_inline` runs the items in this process, in
  the order a one-worker pool would complete them, with no pool and no
  pickling;
* ``fused`` — the same items drain from one process pool fed by a
  single work queue, so runs and cells of every campaign share the
  workers with no barrier between them.

Both drains land every finished task in one private state machine,
which fills the result slots, opens fan-outs, streams each completion
to ``on_partial`` and names the tasks that become runnable. The drains
differ only in where a task runs, so serial == fused holds by
construction, not by a test keeping two implementations equal.

Determinism contract
--------------------
Every task carries a :class:`TaskAddress` ``(campaign, run_index,
cell_index)`` plus an explicit seed-derivation pair ``(seed,
spawn_index)``. The worker derives the task's generator as::

    np.random.default_rng(np.random.SeedSequence(seed).spawn(k)[i])

which depends only on ``(seed, i)`` — a ``SeedSequence`` child's
``spawn_key`` is its spawn position, independent of how many siblings
were spawned alongside it. Run ``i`` therefore sees the exact generator
``spawn_generators(seed, n)`` hands it, and the ``j``-th populated cell
of a multi-cell run sees child ``j`` of the rollout seed that run's
prologue draws (:mod:`repro.scenarios.runner`) — results are
bit-identical across backends, worker counts and task completion
orders.

Fan-out
-------
A task may return a :class:`FanOut` instead of a result: the drain
then runs the fan-out's sub-items (e.g. one task per cell of a
multi-cell run) and, once every sub-result has arrived, a reduction
task that folds them — in canonical sub-item order — into the parent
task's result. The state machine keys every result by its slot, not by
its arrival: the property tests land slots in shuffled causal orders
and assert the canonical output never changes.

Dispatch grain
--------------
Submitting one pool task per (run x cell) item prices every item at a
full pickle/IPC round trip — a loss against the serial path when items
are tiny (many cells, few devices each). The pool drain therefore
groups consecutive canonical items into *chunks* of
:func:`dispatch_grain` items and submits each chunk as one task; the
worker runs the chunk's items in order, each with its own derived
generator, and the drain lands the returned value list item by item,
exactly as it lands unchunked items. Results are bit-identical at every
worker count.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import count
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Execution backends: ``serial`` drains the task graph in this
#: process, ``fused`` on a process pool (bit-identical results).
BACKENDS = ("serial", "fused")

#: A task function: (rng, address, payload) -> result | FanOut.
TaskFn = Callable[[np.random.Generator, "TaskAddress", Any], Any]

#: A reduction function: (state, sub_results, address) -> result.
ReduceFn = Callable[[Any, List[Any], "TaskAddress"], Any]


def available_cores() -> int:
    """Cores this process may run on.

    Its CPU affinity set where the platform has one (so ``taskset`` or
    a restricted cpuset counts), else every core the host has.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def validate_backend(backend: str) -> None:
    """Reject anything but the two :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )


def validate_workers(workers: Optional[int]) -> None:
    """Reject a pool of fewer than one worker (None = every core)."""
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


@dataclass(frozen=True)
class TaskAddress:
    """The deterministic identity of one work item.

    ``campaign`` names the campaign (a scenario fingerprint, a cache
    tag, ...), ``run_index`` the Monte-Carlo run and ``cell_index`` the
    cell within the run; ``-1`` marks the axis as unused (a run-level
    task has ``cell_index=-1``). Two tasks with the same address compute
    the same thing — the address, not the submission or completion
    order, is what the result is keyed by.
    """

    campaign: str
    run_index: int
    cell_index: int = -1

    def __str__(self) -> str:
        cell = "" if self.cell_index < 0 else f"/cell{self.cell_index}"
        return f"{self.campaign}/run{self.run_index}{cell}"


def derive_task_rng(seed: int, spawn_index: int) -> np.random.Generator:
    """The fixed ``SeedSequence`` child generator of one task.

    Child ``i`` of ``SeedSequence(seed)`` is identical no matter how
    many siblings are spawned, so this is bit-compatible with
    ``spawn_generators(seed, n)[i]`` (the Monte-Carlo contract), for
    run tasks and a multi-cell run's cell tasks alike.
    """
    if spawn_index < 0:
        raise ConfigurationError(
            f"spawn_index must be >= 0, got {spawn_index}"
        )
    child = np.random.SeedSequence(seed).spawn(spawn_index + 1)[spawn_index]
    return np.random.default_rng(child)


@dataclass(frozen=True)
class WorkItem:
    """One schedulable task: an address, a function and its seed pair."""

    address: TaskAddress
    fn: TaskFn
    payload: Any
    seed: int
    spawn_index: int


@dataclass(frozen=True)
class FanOut:
    """Returned by a task that expands into sub-tasks.

    ``items`` are scheduled like any other work item; once all their
    results are in, ``reduce_fn(state, results, address)`` runs (on the
    drain's executor) with ``results`` in ``items`` order — the
    canonical order — regardless of completion order. Only top-level
    tasks may fan out (one level keeps the graph, and the determinism
    argument, simple).

    ``abort_fn(state)``, when given, releases what ``state`` holds (a
    shared-memory fleet, say) if the campaign fails before the
    reduction runs; it must be idempotent, because a reduction that did
    run may already have released it.
    """

    items: Tuple[WorkItem, ...]
    reduce_fn: ReduceFn
    state: Any
    abort_fn: Optional[Callable[[Any], None]] = None


def _validate_picklable(items: Sequence[WorkItem]) -> None:
    """Reject unpicklable task functions before any pool submission.

    Deduplicated by function identity: a 10^4-item sweep reusing one
    module-level task fn pays for a single ``pickle.dumps``, not one per
    item.
    """
    seen: set = set()
    for item in items:
        key = id(item.fn)
        if key in seen:
            continue
        seen.add(key)
        try:
            pickle.dumps(item.fn)
        except Exception as exc:
            raise ConfigurationError(
                "fused dispatch requires picklable task functions "
                "(module-level function or functools.partial of "
                f"one); got {item.fn!r}: {exc}"
            ) from exc


#: Chunks never grow past this: larger grains stop helping amortise the
#: per-task pickle/IPC round trip and start costing scheduling slack.
_MAX_GRAIN = 64


def dispatch_grain(n_items: int, workers: int) -> int:
    """The pool's dispatch grain for ``n_items`` sibling tasks over
    ``workers``.

    Aims at ~4 chunks per worker — enough batching to amortise the
    per-task pickle/IPC round trip when items are tiny (the regime
    where fused used to lose to serial), while keeping the queue deep
    enough that an uneven item mix still load-balances. A deterministic
    pure function of ``(n_items, workers)``: the chunk boundaries never
    depend on timing.
    """
    if n_items < 1:
        raise ConfigurationError(f"n_items must be >= 1, got {n_items}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return max(1, min(_MAX_GRAIN, -(-n_items // (workers * 4))))


@dataclass(frozen=True)
class PartialResult:
    """One completion streamed out of the task graph as it lands.

    ``kind`` is ``"top"`` (a top-level task that returned a plain
    value), ``"sub"`` (one fan-out sub-item, e.g. a single cell of a
    multi-cell run) or ``"reduce"`` (a fan-out's folded result filling
    its top-level slot). ``position`` is the sub-item's canonical
    position within its fan-out (None otherwise); ``address`` is the
    completing task's deterministic address.

    Streaming is observational only: the drains still return the
    canonical outputs in submission order, so consuming partials can
    never perturb determinism.
    """

    kind: str
    top_index: int
    value: Any
    position: Optional[int] = None
    address: Optional[TaskAddress] = None


#: Callback invoked (in the scheduling process) for each streamed
#: :class:`PartialResult`, in completion order.
PartialFn = Callable[[PartialResult], None]


def _run_slot(slot: Tuple) -> Any:
    """Run one slot of the task graph (the pool workers' entry point).

    A ``("top", start, chunk)`` or ``("sub", top_index, start, chunk)``
    slot runs a chunk of consecutive canonical items in order; each item
    derives its own ``(seed, spawn_index)`` generator, so the values are
    element-for-element those of running the items one at a time — a
    chunk only changes how many results ride one IPC round trip. A
    ``("reduce", top_index, fanout, results)`` slot runs the fan-out's
    reduction on its sub-results.
    """
    if slot[0] == "reduce":
        _, _, fanout, results = slot
        return fanout.reduce_fn(
            fanout.state, results, fanout.items[0].address
        )
    return [
        item.fn(
            derive_task_rng(item.seed, item.spawn_index),
            item.address,
            item.payload,
        )
        for item in slot[-1]
    ]


class _Graph:
    """The task graph's state machine, shared by both drains.

    :meth:`land` records one finished slot — filling top-level result
    slots, opening fan-outs, collecting sub-results — streams each
    completion to ``on_partial`` as it is recorded, and returns the
    slots the landing makes runnable (a fan-out's sub-item chunks, a
    ready reduction). The drains differ only in *where* a slot runs.
    Each slot is created exactly once, so ``results`` is the canonical
    list once no slot is left to run, whatever order the slots landed
    in.
    """

    def __init__(
        self,
        items: Sequence[WorkItem],
        grain: Callable[[int], int],
        on_partial: Optional[PartialFn],
    ) -> None:
        if not items:
            raise ConfigurationError("no work items to dispatch")
        #: Top-level results in submission order.
        self.results: List[Any] = [None] * len(items)
        #: top index -> [fan-out, its sub-results, sub-results still out].
        self._fanouts: Dict[int, List[Any]] = {}
        #: Every fan-out ever opened, for :meth:`abort`.
        self._opened: List[FanOut] = []
        self._grain = grain
        self._on_partial = on_partial
        self.initial = self._chunks(("top",), items)

    def _chunks(self, head: Tuple, items: Sequence[WorkItem]) -> List[Tuple]:
        grain = self._grain(len(items))
        return [
            head + (start, tuple(items[start : start + grain]))
            for start in range(0, len(items), grain)
        ]

    def _emit(self, kind: str, top_index: int, value: Any, **where: Any) -> None:
        if self._on_partial is not None:
            self._on_partial(PartialResult(kind, top_index, value, **where))

    def land(self, slot: Tuple, value: Any) -> List[Tuple]:
        """Record one finished slot; returns the slots it makes runnable."""
        runnable: List[Tuple] = []
        if slot[0] == "reduce":
            _, top_index, fanout, _ = slot
            if isinstance(value, FanOut):
                raise ConfigurationError(
                    "nested fan-out: a reduction may not expand"
                )
            self.results[top_index] = value
            self._emit(
                "reduce", top_index, value, address=fanout.items[0].address
            )
        elif slot[0] == "top":
            _, start, chunk = slot
            for index, item, result in zip(count(start), chunk, value):
                if not isinstance(result, FanOut):
                    self.results[index] = result
                    self._emit("top", index, result, address=item.address)
                    continue
                if not result.items:
                    raise ConfigurationError(
                        "a FanOut needs at least one sub-item"
                    )
                self._opened.append(result)
                n_subs = len(result.items)
                self._fanouts[index] = [result, [None] * n_subs, n_subs]
                runnable.extend(self._chunks(("sub", index), result.items))
        else:
            _, top_index, start, chunk = slot
            group = self._fanouts[top_index]
            fanout, results, _ = group
            for position, item, result in zip(count(start), chunk, value):
                if isinstance(result, FanOut):
                    raise ConfigurationError(
                        "nested fan-out: only top-level tasks may expand"
                    )
                results[position] = result
                group[2] -= 1
                self._emit(
                    "sub",
                    top_index,
                    result,
                    position=position,
                    address=item.address,
                )
            if not group[2]:
                del self._fanouts[top_index]
                runnable.append(("reduce", top_index, fanout, results))
        return runnable

    def abort(self, unlanded: Iterable[Any] = ()) -> None:
        """Release the state of every fan-out the campaign opened.

        ``unlanded`` are top-level values that finished but were never
        (or only partly) landed; fan-outs among them are released too,
        each fan-out once. Best effort: the campaign's own error is
        what propagates.
        """
        fanouts = {id(fanout): fanout for fanout in self._opened}
        fanouts.update(
            (id(value), value) for value in unlanded if isinstance(value, FanOut)
        )
        for fanout in fanouts.values():
            if fanout.abort_fn is not None:
                try:
                    fanout.abort_fn(fanout.state)
                except Exception:
                    pass


def drain_inline(
    items: Sequence[WorkItem], on_partial: Optional[PartialFn] = None
) -> List[Any]:
    """Execute every item (and whatever it fans out into) in this process.

    The ``serial`` backend: the same work items the pool runs, in the
    order a one-worker pool completes them — all top-level items, then
    every fan-out's sub-items, then the reductions — landed in the same
    state machine. No pool starts and nothing is pickled, so task
    functions may be closures. ``on_partial`` streams exactly the
    :class:`PartialResult` sequence a one-worker ``fused`` drain
    streams.
    """
    graph = _Graph(list(items), grain=lambda n_items: 1, on_partial=on_partial)
    queue = deque(graph.initial)
    try:
        while queue:
            slot = queue.popleft()
            queue.extend(graph.land(slot, _run_slot(slot)))
    except BaseException:
        graph.abort()
        raise
    return graph.results


def _unlanded_values(pending: Dict[Any, Tuple]) -> List[Any]:
    """Values of finished top-level chunks a failed drain never landed."""
    values: List[Any] = []
    for future, slot in pending.items():
        if (
            slot[0] == "top"
            and future.done()
            and not future.cancelled()
            and future.exception() is None
        ):
            values.extend(future.result())
    return values


def _drain_pool(
    items: Sequence[WorkItem], workers: int, on_partial: Optional[PartialFn]
) -> List[Any]:
    """The ``fused`` backend: one process pool fed by one work queue.

    Consecutive canonical items go to the pool in chunks of
    :func:`dispatch_grain` (one pickle/IPC round trip per chunk), and
    each returned value list lands item by item, so results and the
    partial stream are those of per-item submission. Finished slots
    land in submission order. Everything — task functions, payloads,
    fan-out states, results — must be picklable. If any task raises,
    the pool is shut down, every opened fan-out's ``abort_fn`` runs,
    and the error propagates.
    """
    items = list(items)
    graph = _Graph(
        items,
        grain=lambda n_items: dispatch_grain(n_items, workers),
        on_partial=on_partial,
    )
    _validate_picklable(items)

    # Start the resource tracker before the pool forks: every
    # worker then inherits the same tracker, which is what makes
    # shared-memory fleet registrations idempotent across processes
    # (see repro.devices.sharedmem's lifecycle contract).
    resource_tracker.ensure_running()
    # NumPy 2.x imports numpy.ma lazily on the first plain np.unique
    # call (through np.ma.is_masked), which Fleet.from_columns makes.
    # Importing it before the pool forks lets every worker inherit
    # the module instead of paying the import in its first cell,
    # even when this process has run no work of its own.
    import numpy.ma  # noqa: F401
    with ProcessPoolExecutor(max_workers=workers) as pool:
        #: future -> slot (see _run_slot), in submission order.
        pending: Dict[Any, Tuple] = {}

        def submit(slots: Sequence[Tuple]) -> None:
            for slot in slots:
                pending[pool.submit(_run_slot, slot)] = slot

        try:
            submit(graph.initial)
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # Land in submission order, not the done set's
                # arbitrary one, so the partial stream is as
                # deterministic as the completions are. A future
                # leaves ``pending`` only once landed, so a landing
                # that fails still counts its values as unlanded.
                for future in [f for f in pending if f in done]:
                    submit(graph.land(pending[future], future.result()))
                    del pending[future]
        except BaseException:
            pool.shutdown(wait=True, cancel_futures=True)
            graph.abort(_unlanded_values(pending))
            raise
    return graph.results


def drain(
    items: Sequence[WorkItem],
    backend: str,
    *,
    workers: Optional[int] = None,
    on_partial: Optional[PartialFn] = None,
) -> List[Any]:
    """Drain ``items`` on ``backend`` (one of :data:`BACKENDS`).

    ``serial`` runs them in this process (:func:`drain_inline`),
    ``fused`` on a pool of ``workers`` processes (default
    :func:`available_cores`; checked on either backend). Either
    way the results — and the streamed partials at one worker — are
    the same: the per-item results in submission order, each fan-out
    item resolved to its reduction's result.
    """
    validate_backend(backend)
    validate_workers(workers)
    if backend == "serial":
        return drain_inline(items, on_partial=on_partial)
    return _drain_pool(
        items, available_cores() if workers is None else workers, on_partial
    )
