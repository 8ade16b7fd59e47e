"""The (run x cell) task graph and its two drains.

Every Monte-Carlo campaign — a plain run function, a scenario's runs
and the cells each multi-cell run fans out into, a multi-cell rollout,
a whole sweep grid — is expressed as one list of :class:`WorkItem`
objects. The list has exactly two executors, named by the ``backend``
every public entry point takes (:data:`BACKENDS`):

* ``serial`` — :func:`drain_inline` runs the items in this process, in
  the order a one-worker pool would complete them, with no pool and no
  pickling;
* ``fused`` — :class:`FusedScheduler` drains the same items from one
  process pool fed by a single work queue, so runs and cells of every
  campaign share the workers with no barrier between them.

Both feed the same :class:`ReductionLedger`, so serial == fused holds by
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
``spawn_generators(seed, n)`` hands it, and cell ``j`` of a run sees
the exact child ``CoordinationEntity.rollout(seed=...)`` derives —
results are bit-identical across backends, worker counts and task
completion orders.

Fan-out
-------
A task may return a :class:`FanOut` instead of a result: the scheduler
then enqueues the fan-out's sub-items (e.g. one task per cell of a
multi-cell run) and, once every sub-result has arrived, enqueues a
reduction task that folds them — in canonical sub-item order — into the
parent task's result. The bookkeeping lives in :class:`ReductionLedger`,
which is a pure completion-order-independent state machine: the property
tests drive it with shuffled completion orders and assert the canonical
output never changes.

Dispatch grain
--------------
Submitting one pool task per (run x cell) item prices every item at a
full pickle/IPC round trip — a loss against the serial path when items
are tiny (many cells, few devices each). The scheduler therefore groups
consecutive canonical items into *chunks* (:func:`auto_chunk_size`, or
an explicit ``chunk_size``) and submits each chunk as one task; the
worker runs the chunk's items in order, each with its own derived
generator, and the scheduler unpacks the returned value list into the
exact per-item ledger completions the unchunked path performs. Results
are bit-identical for every chunk size and worker count.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing import resource_tracker
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError

#: Execution backends: ``serial`` drains the task graph in this
#: process, ``fused`` on a process pool (bit-identical results).
BACKENDS = ("serial", "fused")

#: A run function: (rng, run_index) -> {metric name: value}.
RunFn = Callable[[np.random.Generator, int], Mapping[str, float]]

#: A task function: (rng, address, payload) -> result | FanOut.
TaskFn = Callable[[np.random.Generator, "TaskAddress", Any], Any]

#: A reduction function: (state, sub_results, address) -> result.
ReduceFn = Callable[[Any, List[Any], "TaskAddress"], Any]


def default_workers() -> int:
    """Pool size used when none is given (all visible cores)."""
    return max(1, os.cpu_count() or 1)


def validate_backend(backend: str) -> None:
    """Reject anything but the two :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )


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
    many siblings are spawned, so this is bit-compatible with both
    ``spawn_generators(seed, n)[i]`` (the Monte-Carlo contract) and the
    per-cell children ``rollout(seed=...)`` derives.
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
    tasks may fan out (one level keeps the ledger, and the determinism
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


def _execute_item(item: WorkItem) -> Any:
    """Worker entry point: derive the task generator and run the task."""
    rng = derive_task_rng(item.seed, item.spawn_index)
    return item.fn(rng, item.address, item.payload)


#: Chunks never grow past this: larger grains stop helping amortise the
#: per-task pickle/IPC round trip and start costing scheduling slack.
_MAX_CHUNK_SIZE = 64


def auto_chunk_size(n_items: int, workers: int) -> int:
    """The default dispatch grain for ``n_items`` over ``workers``.

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
    return max(1, min(_MAX_CHUNK_SIZE, -(-n_items // (workers * 4))))


_UNSET = object()


@dataclass(frozen=True)
class PartialResult:
    """One completion streamed out of the ledger as it lands.

    ``kind`` is ``"top"`` (a top-level task that returned a plain
    value), ``"sub"`` (one fan-out sub-item, e.g. a single cell of a
    multi-cell run) or ``"reduce"`` (a fan-out's folded result filling
    its top-level slot). ``position`` is the sub-item's canonical
    position within its fan-out (None otherwise); ``address`` is the
    completing task's deterministic address when the scheduler knows it.

    Streaming is observational only: the canonical outputs still come
    from :meth:`ReductionLedger.results` in submission order, so
    consuming partials can never perturb determinism.
    """

    kind: str
    top_index: int
    value: Any
    position: Optional[int] = None
    address: Optional[TaskAddress] = None


#: Callback invoked (in the scheduling process) for each streamed
#: :class:`PartialResult`, in completion order.
PartialFn = Callable[[PartialResult], None]


@dataclass
class _Group:
    """One pending fan-out: sub-results accumulate until reduction."""

    top_index: int
    address: TaskAddress
    reduce_fn: ReduceFn
    state: Any
    results: List[Any]
    remaining: int


@dataclass(frozen=True)
class ReadyReduce:
    """A fan-out whose sub-results are all in: reduction can run."""

    top_index: int
    address: TaskAddress
    reduce_fn: ReduceFn
    state: Any
    results: List[Any]


class ReductionLedger:
    """Completion-order-independent reassembly of fused results.

    The scheduler feeds completions in whatever order the pool yields
    them; the ledger slots each one by address and reports what to do
    next (schedule a fan-out's sub-items, run a ready reduction, or
    nothing). ``results()`` returns the top-level results in submission
    order and refuses to answer before every slot is filled — so the
    output is a pure function of the per-task results, not of timing.
    """

    def __init__(self, n_top: int) -> None:
        if n_top < 1:
            raise ConfigurationError(f"need >= 1 top-level task, got {n_top}")
        self._top: List[Any] = [_UNSET] * n_top
        self._groups: Dict[int, _Group] = {}
        self._stream: List[PartialResult] = []

    def partial_results(self) -> Iterator[PartialResult]:
        """Drain the completions streamed since the last drain.

        Yields :class:`PartialResult` records in completion order —
        per-cell results flow out here while sibling cells (and whole
        other runs) are still in flight, instead of waiting for the
        one-reduce-per-run barrier.
        """
        while self._stream:
            yield self._stream.pop(0)

    def complete_top(
        self, index: int, value: Any, address: Optional[TaskAddress] = None
    ) -> Optional[FanOut]:
        """Record a top-level completion; returns a fan-out to schedule.

        A plain value fills the slot; a :class:`FanOut` opens a group
        whose reduction will fill the slot later.
        """
        if not 0 <= index < len(self._top):
            raise ConfigurationError(f"top-level index {index} out of range")
        if self._top[index] is not _UNSET or index in self._groups:
            raise ConfigurationError(
                f"top-level task {index} completed twice"
            )
        if isinstance(value, FanOut):
            if not value.items:
                raise ConfigurationError(
                    "a FanOut needs at least one sub-item"
                )
            self._groups[index] = _Group(
                top_index=index,
                address=value.items[0].address,
                reduce_fn=value.reduce_fn,
                state=value.state,
                results=[_UNSET] * len(value.items),
                remaining=len(value.items),
            )
            return value
        self._top[index] = value
        self._stream.append(
            PartialResult(
                kind="top", top_index=index, value=value, address=address
            )
        )
        return None

    def complete_sub(
        self,
        top_index: int,
        position: int,
        value: Any,
        address: Optional[TaskAddress] = None,
    ) -> Optional[ReadyReduce]:
        """Record one sub-item completion; returns the reduction when
        the group is complete."""
        group = self._groups.get(top_index)
        if group is None:
            raise ConfigurationError(
                f"no open fan-out for top-level task {top_index}"
            )
        if isinstance(value, FanOut):
            raise ConfigurationError(
                "nested fan-out: only top-level tasks may expand"
            )
        if not 0 <= position < len(group.results):
            raise ConfigurationError(
                f"sub-item position {position} out of range"
            )
        if group.results[position] is not _UNSET:
            raise ConfigurationError(
                f"sub-item {top_index}/{position} completed twice"
            )
        group.results[position] = value
        self._stream.append(
            PartialResult(
                kind="sub",
                top_index=top_index,
                value=value,
                position=position,
                address=address,
            )
        )
        group.remaining -= 1
        if group.remaining:
            return None
        del self._groups[top_index]
        return ReadyReduce(
            top_index=top_index,
            address=group.address,
            reduce_fn=group.reduce_fn,
            state=group.state,
            results=list(group.results),
        )

    def complete_reduce(
        self,
        top_index: int,
        value: Any,
        address: Optional[TaskAddress] = None,
    ) -> None:
        """Record a reduction's result into its top-level slot."""
        if not 0 <= top_index < len(self._top):
            raise ConfigurationError(
                f"top-level index {top_index} out of range"
            )
        if self._top[top_index] is not _UNSET:
            raise ConfigurationError(
                f"top-level task {top_index} completed twice"
            )
        if isinstance(value, FanOut):
            raise ConfigurationError(
                "nested fan-out: a reduction may not expand"
            )
        self._top[top_index] = value
        self._stream.append(
            PartialResult(
                kind="reduce",
                top_index=top_index,
                value=value,
                address=address,
            )
        )

    @property
    def done(self) -> bool:
        """True once every top-level slot holds a result."""
        return not self._groups and all(
            slot is not _UNSET for slot in self._top
        )

    def results(self) -> List[Any]:
        """Top-level results in canonical (submission) order."""
        if not self.done:
            raise ConfigurationError(
                "fused campaign incomplete: results are only available "
                "once every task has completed"
            )
        return list(self._top)


def _run_slot(slot: Tuple) -> Any:
    """Run one slot of the task graph (the pool workers' entry point).

    A ``("top", start, chunk)`` or ``("sub", top_index, start, chunk)``
    slot runs a chunk of consecutive canonical items in order; each item
    derives its own ``(seed, spawn_index)`` generator, so the values are
    element-for-element those of running the items one at a time — a
    chunk only changes how many results ride one IPC round trip. A
    ``("reduce", ready)`` slot runs a fan-out's reduction.
    """
    if slot[0] == "reduce":
        ready = slot[1]
        return ready.reduce_fn(ready.state, ready.results, ready.address)
    return [_execute_item(item) for item in slot[-1]]


class _GraphState:
    """The ledger side of a drain, shared by both backends.

    Lands finished slots in the :class:`ReductionLedger`, streams the
    partials that produces, and names the slots each landing makes
    runnable (a fan-out's sub-item chunks, a ready reduction) — so the
    in-process and pool drains differ only in *where* a slot runs.
    """

    def __init__(
        self,
        items: Sequence[WorkItem],
        grain: Callable[[int], int],
        on_partial: Optional[PartialFn],
    ) -> None:
        self.ledger = ReductionLedger(len(items))
        self._grain = grain
        self._on_partial = on_partial
        self._opened: List[FanOut] = []
        self.initial = self._chunks(("top",), items)

    def _chunks(self, head: Tuple, items: Sequence[WorkItem]) -> List[Tuple]:
        grain = self._grain(len(items))
        return [
            head + (start, tuple(items[start : start + grain]))
            for start in range(0, len(items), grain)
        ]

    def land(self, slot: Tuple, value: Any) -> List[Tuple]:
        """Record one finished slot; returns the slots it makes runnable."""
        runnable: List[Tuple] = []
        if slot[0] == "reduce":
            ready = slot[1]
            self.ledger.complete_reduce(
                ready.top_index, value, address=ready.address
            )
        elif slot[0] == "top":
            _, start, chunk = slot
            for offset, (item, result) in enumerate(zip(chunk, value)):
                fanout = self.ledger.complete_top(
                    start + offset, result, address=item.address
                )
                if fanout is not None:
                    self._opened.append(fanout)
                    runnable.extend(
                        self._chunks(("sub", start + offset), fanout.items)
                    )
        else:
            _, top_index, start, chunk = slot
            for offset, (item, result) in enumerate(zip(chunk, value)):
                ready = self.ledger.complete_sub(
                    top_index, start + offset, result, address=item.address
                )
                if ready is not None:
                    runnable.append(("reduce", ready))
        for partial in self.ledger.partial_results():
            if self._on_partial is not None:
                self._on_partial(partial)
        return runnable

    def abort(self, unlanded: Iterable[Any] = ()) -> None:
        """Release the state of every fan-out the campaign opened.

        ``unlanded`` are top-level values that finished but were never
        landed; fan-outs among them are released too. Best effort: the
        campaign's own error is what propagates.
        """
        fanouts = self._opened + [v for v in unlanded if isinstance(v, FanOut)]
        for fanout in fanouts:
            if fanout.abort_fn is not None:
                try:
                    fanout.abort_fn(fanout.state)
                except Exception:
                    pass


def drain_inline(
    items: Sequence[WorkItem], on_partial: Optional[PartialFn] = None
) -> List[Any]:
    """Execute every item (and whatever it fans out into) in this process.

    The ``serial`` backend: the same work items the fused scheduler
    submits, run in the order a one-worker pool completes them — all
    top-level items, then every fan-out's sub-items, then the
    reductions — and landed in the same :class:`ReductionLedger`. No
    pool starts and nothing is pickled, so task functions may be
    closures. ``on_partial`` streams exactly the :class:`PartialResult`
    sequence ``FusedScheduler(workers=1)`` streams.
    """
    items = list(items)
    if not items:
        raise ConfigurationError("no work items to dispatch")
    graph = _GraphState(items, grain=lambda n_items: 1, on_partial=on_partial)
    queue = deque(graph.initial)
    try:
        while queue:
            slot = queue.popleft()
            queue.extend(graph.land(slot, _run_slot(slot)))
    except BaseException:
        graph.abort()
        raise
    return graph.ledger.results()


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


class FusedScheduler:
    """One process pool draining a flattened (run x cell) work queue.

    ``chunk_size`` sets the dispatch grain: the scheduler groups
    consecutive canonical items into chunks of that size and submits
    each chunk as one pool task (one pickle/IPC round trip for the
    whole chunk), then unpacks the returned values into exactly the
    per-item ledger completions the unchunked path performs. ``None``
    (the default) picks :func:`auto_chunk_size` per batch; ``1`` is
    bit-for-bit the per-item submission path. Results are identical for
    every chunk size because each item keeps its own derived generator
    and the ledger is completion-order-independent.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        workers = default_workers() if workers is None else workers
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._workers = workers
        self._chunk_size = chunk_size

    @property
    def workers(self) -> int:
        """Pool size."""
        return self._workers

    @property
    def chunk_size(self) -> Optional[int]:
        """The configured dispatch grain (None = auto per batch)."""
        return self._chunk_size

    def _grain(self, n_items: int) -> int:
        """The chunk size for one batch of ``n_items`` sibling tasks."""
        if self._chunk_size is not None:
            return self._chunk_size
        return auto_chunk_size(n_items, self._workers)

    def run(
        self,
        items: Sequence[WorkItem],
        on_partial: Optional[PartialFn] = None,
    ) -> List[Any]:
        """Execute every item (and whatever it fans out into).

        Returns the per-item results in submission order; fan-out items
        resolve to their reduction's result. Everything — task
        functions, payloads, fan-out states, results — must be
        picklable. ``on_partial`` (if given) is called in this process
        for every streamed :class:`PartialResult` as completions land —
        per-cell results surface while the rest of the queue is still
        draining. If any task raises, the pool is shut down, every
        opened fan-out's ``abort_fn`` runs, and the error propagates.
        """
        items = list(items)
        if not items:
            raise ConfigurationError("no work items to dispatch")
        _validate_picklable(items)
        graph = _GraphState(items, grain=self._grain, on_partial=on_partial)

        # Start the resource tracker before the pool forks: every
        # worker then inherits the same tracker, which is what makes
        # shared-memory fleet registrations idempotent across processes
        # (see repro.devices.sharedmem's lifecycle contract).
        resource_tracker.ensure_running()
        with ProcessPoolExecutor(max_workers=self._workers) as pool:
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
                    # deterministic as the completions are.
                    for future in [f for f in pending if f in done]:
                        slot = pending.pop(future)
                        submit(graph.land(slot, future.result()))
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                graph.abort(_unlanded_values(pending))
                raise
        return graph.ledger.results()


def execute_items(
    items: Sequence[WorkItem],
    workers: Optional[int] = None,
    on_partial: Optional[PartialFn] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """One-call front: dispatch ``items`` through a fused scheduler."""
    return FusedScheduler(workers=workers, chunk_size=chunk_size).run(
        items, on_partial=on_partial
    )


def drain(
    items: Sequence[WorkItem],
    backend: str,
    *,
    workers: Optional[int] = None,
    on_partial: Optional[PartialFn] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Drain ``items`` on ``backend`` (one of :data:`BACKENDS`).

    ``serial`` runs them in this process (:func:`drain_inline`; the pool
    settings ``workers`` and ``chunk_size`` do not apply), ``fused`` on
    a :class:`FusedScheduler`. Either way the results — and the
    streamed partials at one worker — are the same.
    """
    validate_backend(backend)
    if backend == "serial":
        return drain_inline(items, on_partial=on_partial)
    return execute_items(
        items, workers=workers, on_partial=on_partial, chunk_size=chunk_size
    )


# ----------------------------------------------------------------------
# Flat work-item builders (the montecarlo / rollout consumer surface)
# ----------------------------------------------------------------------
def _metric_task(
    rng: np.random.Generator,
    address: TaskAddress,
    payload: Any,
    *,
    fn: RunFn,
) -> Dict[str, float]:
    """One Monte-Carlo run as a task (floats cross back)."""
    return {k: float(v) for k, v in fn(rng, address.run_index).items()}


def run_items(
    fn: RunFn, seed: int, n_runs: int, campaign: str = "montecarlo"
) -> List[WorkItem]:
    """The work items of a Monte-Carlo run function: run ``i`` is one
    item addressed ``(campaign, i, -1)`` with the standard child
    generator."""
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    # One task function shared by every item, so the fused pool's
    # up-front picklability check covers the run function once.
    task = partial(_metric_task, fn=fn)
    return [
        WorkItem(
            address=TaskAddress(campaign, run_index),
            fn=task,
            payload=None,
            seed=seed,
            spawn_index=run_index,
        )
        for run_index in range(n_runs)
    ]


def _map_task(
    rng: np.random.Generator,
    address: TaskAddress,
    payload: Any,
    *,
    fn: Callable,
) -> Any:
    """Generic per-item map adapter: ``fn(rng, item_index, item)``."""
    index, item = payload
    return fn(rng, index, item)


def map_items(
    fn: Callable,
    seed: int,
    items: Sequence[Any],
    campaign: str = "map",
    cell_ids: Optional[Sequence[int]] = None,
) -> List[WorkItem]:
    """The work items mapping ``fn(rng, index, item)`` over ``items``.

    Item ``i`` receives ``SeedSequence(seed).spawn(n)[i]``. ``cell_ids``
    labels each item's task address as a cell of run 0 (the rollout
    consumer); without it items address as run indices.
    """
    items = list(items)
    if not items:
        raise ConfigurationError("no items to map")
    if cell_ids is not None and len(cell_ids) != len(items):
        raise ConfigurationError(
            f"{len(cell_ids)} cell ids for {len(items)} items"
        )
    task = partial(_map_task, fn=fn)
    work = []
    for index, item in enumerate(items):
        if cell_ids is None:
            address = TaskAddress(campaign, index)
        else:
            address = TaskAddress(campaign, 0, int(cell_ids[index]))
        work.append(
            WorkItem(
                address=address,
                fn=task,
                payload=(index, item),
                seed=seed,
                spawn_index=index,
            )
        )
    return work
