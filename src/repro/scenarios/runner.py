"""Scenario execution: one spec -> aggregated metrics.

One Monte-Carlo run of a scenario samples a fleet from the spec's
mixture and coverage mix, plans the campaign with the spec's mechanism,
executes the plan, and simulates the segment-loss/repair rounds for the
delivered image. Each run is one work item of the task graph in
:mod:`repro.sim.dispatch`, and both backends drain the same items —
``serial`` in this process, ``fused`` on a process pool — so their
metric arrays are bit-identical by construction.

A single-cell run executes in place on the run's own generator: fleet,
the one cell (:func:`_run_cell`), repair rounds, fold. A multi-cell run
is a *prologue* task that generates the fleet, draws the cell
attachments and the rollout seed, publishes the fleet's columns (plus
the attachment map) into one shared-memory segment
(:class:`~repro.devices.sharedmem.SharedFleet`), then fans out one task
per cell (addressed ``(fingerprint, run, cell)``, seeded by the rollout
seed's child for that cell) and a *reduction* that replays the run
generator's post-prologue state through the repair rounds, folds the
per-cell summaries into the run's metric dict and unlinks the segment.
Cell tasks carry only the ~100-byte segment descriptor: each process
attaches to the one physical fleet mapping (through a small per-process
LRU of attachments) and slices its cell out by index — no fleet is ever
pickled or regenerated per task. A comparison run
(:func:`comparison_campaign`) is a single-cell run whose cell plans
several labelled mechanisms; its dict holds each plan's fold, its keys
prefixed ``label/``.

Every path — single-cell runs, multi-cell reductions and the log-only
rebuild in :mod:`repro.scenarios.record` — builds a run's metric dict
with :func:`fold_run`. A spec with ``record_events`` set also returns
each run's :class:`~repro.sim.eventlog.RunLog` as a task output, which
is how ``record_dir`` works on both backends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.base import GroupingMechanism
from repro.core.plan import METHOD_CODE, MulticastPlan, WakeMethod
from repro.devices.battery import Battery
from repro.devices.fleet import Fleet
from repro.devices.sharedmem import (
    SharedFleet,
    SharedFleetDescriptor,
    unlink_descriptor,
)
from repro.drx.paging import UE_ID_SPACE, v_paging_frame_offset
from repro.drx.schedule import v_count_in
from repro.errors import ConfigurationError
from repro.experiments.reporting import Table
from repro.multicast.coordination import MultiCellSpec, attach_devices
from repro.multicast.reliability import RepairOutcome, simulate_repair_rounds
from repro.phy.coverage import CoverageClass
from repro.scenarios.spec import ScenarioSpec
from repro.sim.cache import ResultCache, fingerprint
from repro.sim.dispatch import FanOut, PartialFn, TaskAddress, WorkItem
from repro.sim.eventlog import (
    EventLog,
    EventLogRecorder,
    RunLog,
    repair_round_rows,
    segment_loss_rows,
)
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import CampaignResult
from repro.sim.montecarlo import (
    Campaign,
    RunOutput,
    RunStatistics,
    run_campaigns,
)
from repro.sim.phases import PhaseTimer, merge_timings
from repro.timebase import MS_PER_FRAME, format_bytes
from repro.traffic.generator import generate_fleet

#: The metrics the golden harness pins, in report order.
HEADLINE_METRICS = (
    "transmissions",
    "mean_wait_s",
    "uptime_s",
    "energy_mj",
    "segments_sent",
)


def _run_meta(
    spec: ScenarioSpec, run_index: int, seed: int
) -> Dict[str, object]:
    """The run key a recorded :class:`RunLog` carries."""
    return {
        "scenario": spec.name,
        "fingerprint": spec.fingerprint(),
        "seed": int(seed),
        "run_index": int(run_index),
        "mechanism": spec.mechanism,
        "n_devices": spec.n_devices,
        "n_cells": spec.cells.n_cells,
    }


# ----------------------------------------------------------------------
# Per-cell summaries and the one run fold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSummary:
    """The scalars a cell contributes to its run's metrics.

    Every field is computed where the cell ran, from the full per-cell
    campaign — shipping these instead of the campaign itself keeps the
    fused queue's IPC per task constant-size regardless of fleet size.
    ``worker_rss_kb`` reports the executing process's peak RSS so the
    benchmarks can assert the zero-copy memory ceiling from streamed
    partials alone.
    """

    cell_id: int
    fleet_size: int
    n_transmissions: int
    largest_group: int
    mean_wait_s: float
    light_sleep_s: float
    connected_s: float
    energy_mj: float
    #: DA-SC's adaptation counts: devices whose cycle the plan
    #: shortened, the POs they monitor on the shortened grid between
    #: the adaptation page and the in-window page, and the sum of
    #: their adapted cycles in seconds (all 0 for other mechanisms).
    adapted_devices: int = 0
    intermediate_pos: int = 0
    adapted_cycle_s: float = 0.0
    worker_rss_kb: int = 0
    #: Wall-clock per phase (``attach_s``, ``plan_s``, ``execute_s``) —
    #: streamed for observability (the cold-path bench aggregates these
    #: from partials); never part of the metrics.
    phase_timings: Dict[str, float] = field(default_factory=dict)
    #: The cell's event log when the run records (repair rows are
    #: appended once the run's repair rounds are drawn).
    event_log: Optional[EventLog] = None

    @classmethod
    def of(cls, cell_id: int, result: CampaignResult, **extra: Any) -> "CellSummary":
        """The summary of one executed campaign, live or rebuilt from
        its log; ``extra`` sets the fields a result does not hold."""
        fleet = result.fleet
        groups = np.bincount(result.transmission)
        return cls(
            cell_id=cell_id,
            fleet_size=len(result),
            n_transmissions=result.n_transmissions,
            largest_group=int(groups.max()),
            mean_wait_s=result.mean_wait_s,
            light_sleep_s=fleet.light_sleep_s,
            connected_s=fleet.connected_s,
            energy_mj=fleet.energy_mj,
            **extra,
        )


@dataclass(frozen=True)
class FleetFacts:
    """What only a live run knows about its whole fleet."""

    battery: Battery
    deep_devices: int


def fold_run(
    cells: Sequence[CellSummary],
    repairs: Sequence[Any],
    *,
    multi_cell: bool,
    fleet: Optional[FleetFacts] = None,
) -> Dict[str, float]:
    """Fold per-cell summaries and repair tallies into a run's metrics.

    The one metric-dict builder: single-cell runs, multi-cell
    reductions and the log-only rebuild all call it. Sums run over
    ``cells`` in ascending cell order, so a lone cell's values pass
    through exactly; a single-cell run's mean wait is its cell's,
    unchanged, while a multi-cell run weights each cell's mean by its
    devices. ``repairs`` are per-cell tallies in the same order
    (``segments_sent``, ``rounds`` and, with ``fleet``,
    ``devices_complete`` — a :class:`RepairOutcome` has all three).
    ``fleet`` adds the battery, delivery, coverage and adaptation
    metrics; the log-only path has no fleet and reads the headline
    subset.
    ``n_cells`` is a key of multi-cell dicts only.
    """
    n_devices = sum(cell.fleet_size for cell in cells)
    light_sleep_s = sum(cell.light_sleep_s for cell in cells)
    connected_s = sum(cell.connected_s for cell in cells)
    energy_mj = sum(cell.energy_mj for cell in cells)
    if multi_cell:
        mean_wait_s = (
            sum(cell.mean_wait_s * cell.fleet_size for cell in cells)
            / n_devices
        )
    else:
        (cell,) = cells
        mean_wait_s = cell.mean_wait_s
    metrics = {
        "transmissions": float(sum(cell.n_transmissions for cell in cells)),
        "largest_group": float(max(cell.largest_group for cell in cells)),
        "mean_wait_s": mean_wait_s,
        "light_sleep_s": light_sleep_s,
        "connected_s": connected_s,
        "uptime_s": light_sleep_s + connected_s,
        "energy_mj": energy_mj,
    }
    if fleet is not None:
        metrics["battery_drain_ppm"] = (
            fleet.battery.fraction_consumed(energy_mj / n_devices) * 1e6
        )
    metrics["segments_sent"] = float(sum(r.segments_sent for r in repairs))
    metrics["repair_rounds"] = float(max(r.rounds for r in repairs))
    if fleet is not None:
        metrics["delivered_fraction"] = (
            sum(r.devices_complete for r in repairs) / n_devices
        )
        metrics["deep_coverage_share"] = fleet.deep_devices / n_devices
        for name in ("adapted_devices", "intermediate_pos", "adapted_cycle_s"):
            metrics[name] = float(sum(getattr(cell, name) for cell in cells))
    if multi_cell:
        metrics["n_cells"] = float(len(cells))
    return metrics


def _worker_rss_kb() -> int:
    """This process's peak resident set (VmHWM, kB); 0 off-Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _adaptation(fleet: Fleet, plan: MulticastPlan) -> Dict[str, Any]:
    """``plan``'s DA-SC adaptation counts (see :class:`CellSummary`)."""
    columns = plan.columns
    adapted = columns.method == METHOD_CODE[WakeMethod.DRX_ADAPTATION]
    if not adapted.any():
        return {}
    device = columns.device[adapted]
    cycle = columns.adapted_cycle[adapted]
    phase = v_paging_frame_offset(
        fleet.imsis[device] % UE_ID_SPACE, cycle, fleet.nb
    )
    extra_pos = v_count_in(
        phase,
        cycle,
        columns.adaptation_page_frame[adapted] + 1,
        columns.page_frame[adapted],
    )
    return {
        "adapted_devices": int(device.size),
        "intermediate_pos": int(extra_pos.sum()),
        "adapted_cycle_s": float(np.sum(cycle * MS_PER_FRAME / 1000.0)),
    }


def _run_cell(
    fleet: Fleet,
    spec: ScenarioSpec,
    rng: np.random.Generator,
    cell_id: int,
    timer: PhaseTimer,
    mechanisms: Optional[Sequence[GroupingMechanism]] = None,
) -> List[CellSummary]:
    """Plan, validate and execute one cell's campaigns on ``rng``: one
    summary per mechanism (default: the spec's own), in order.

    The mechanisms plan in turn on ``rng``, and the plans execute in
    the same order over one common horizon, so their PO counts compare:
    a plan whose campaign ends early is executed again over the longest
    one, from the generator state its first execution started at, so its
    random-access draws repeat. A lone plan executes once.
    """
    context = spec.planning_context()
    plans = []
    with timer.phase("plan"):
        for mechanism in mechanisms or (spec.mechanism_obj(),):
            plans.append(mechanism.plan(fleet, context, rng))
            plans[-1].validate(fleet)
    executor = CampaignExecutor(timings=spec.timings())
    recorder = EventLogRecorder() if spec.record_events else None
    with timer.phase("execute"):
        states, results = [], []
        for plan in plans:
            states.append(rng.bit_generator.state)
            results.append(
                executor.execute(fleet, plan, rng=rng, recorder=recorder)
            )
        horizon = max(result.horizon_frames for result in results)
        for index, plan in enumerate(plans):
            if results[index].horizon_frames < horizon:
                replay = np.random.default_rng()
                replay.bit_generator.state = states[index]
                results[index] = executor.execute(
                    fleet, plan, horizon_frames=horizon, rng=replay
                )
    return [
        CellSummary.of(
            cell_id,
            result,
            worker_rss_kb=_worker_rss_kb(),
            phase_timings=timer.timings(),
            event_log=None if recorder is None else recorder.finalize(cell=cell_id),
            **_adaptation(fleet, plan),
        )
        for plan, result in zip(plans, results)
    ]


def _draw_repairs(
    spec: ScenarioSpec,
    cells: Sequence[CellSummary],
    rng: np.random.Generator,
) -> List[RepairOutcome]:
    """Each cell's repair rounds, drawn in ascending cell order.

    This is the last consumer of the run's generator on both drains, so
    a lossless link may skip its draws (see
    :func:`~repro.multicast.reliability.simulate_repair_rounds`) without
    moving any other result.
    """
    return [
        simulate_repair_rounds(
            spec.image(), cell.fleet_size, spec.reliability(), rng
        )
        for cell in cells
    ]


def _deep_devices(histogram: Dict[CoverageClass, int]) -> int:
    return histogram[CoverageClass.ROBUST] + histogram[CoverageClass.EXTREME]


def _finish_run(
    run: "_FusedRunPayload",
    run_index: int,
    cells: Sequence[CellSummary],
    repairs: Sequence[RepairOutcome],
    deep_devices: int,
    timings: Dict[str, float],
) -> RunOutput:
    """Fold a run and, when recording, assemble its :class:`RunLog`.

    A comparison run folds each plan's summary on its own, its keys
    prefixed ``label/``."""
    spec = run.spec
    facts = FleetFacts(spec.battery(), deep_devices)
    if run.plans is not None:
        return RunOutput({
            f"{label}/{name}": value
            for (label, _), cell, repair in zip(run.plans, cells, repairs)
            for name, value in fold_run(
                [cell], [repair], multi_cell=False, fleet=facts
            ).items()
        })
    metrics = fold_run(
        cells, repairs, multi_cell=spec.cells.is_multi_cell, fleet=facts
    )
    if not spec.record_events:
        return RunOutput(metrics)
    logs = {}
    for cell, repair in zip(cells, repairs):
        horizon = int(cell.event_log.meta["horizon_frames"])
        logs[cell.cell_id] = cell.event_log.with_appended(
            np.concatenate([
                repair_round_rows(repair.segments_per_round, horizon),
                segment_loss_rows(repair.missing_per_round, horizon),
            ])
        )
    meta = _run_meta(spec, run_index, run.root_seed)
    meta["phase_timings"] = timings
    return RunOutput(metrics, RunLog(meta=meta, cells=logs))


# ----------------------------------------------------------------------
# The task graph — zero-copy over shared memory for multi-cell runs
# ----------------------------------------------------------------------
#: Per-process LRU of shared-fleet attachments keyed by segment name. A
#: process draining several cells of the same run maps the segment
#: once; eviction closes (unmaps) — never unlinks — the evicted mapping.
_ATTACH_CACHE: "OrderedDict[str, SharedFleet]" = OrderedDict()
_ATTACH_CACHE_MAX = 4

#: Per-process counters: how often the zero-copy path attached, hit the
#: cache, or evicted. The attach-count regression tests read these to
#: prove the descriptor path never silently falls back to pickling.
_ATTACH_STATS = {"attaches": 0, "hits": 0, "evictions": 0}


def _reset_attach_cache() -> None:
    """Close every cached mapping and zero the stats (test helper)."""
    while _ATTACH_CACHE:
        _, shared = _ATTACH_CACHE.popitem(last=False)
        shared.close()
    for key in _ATTACH_STATS:
        _ATTACH_STATS[key] = 0


def _attached_fleet(
    descriptor: SharedFleetDescriptor, context: str = ""
) -> SharedFleet:
    """Fetch (or create) this process's mapping of a shared fleet."""
    shared = _ATTACH_CACHE.get(descriptor.name)
    if shared is not None:
        _ATTACH_CACHE.move_to_end(descriptor.name)
        _ATTACH_STATS["hits"] += 1
        return shared
    shared = SharedFleet.attach(descriptor, context=context)
    _ATTACH_STATS["attaches"] += 1
    _ATTACH_CACHE[descriptor.name] = shared
    while len(_ATTACH_CACHE) > _ATTACH_CACHE_MAX:
        _, evicted = _ATTACH_CACHE.popitem(last=False)
        evicted.close()
        _ATTACH_STATS["evictions"] += 1
    return shared


#: A comparison's plans: labelled mechanisms, in planning order.
LabelledMechanisms = Tuple[Tuple[str, GroupingMechanism], ...]


@dataclass(frozen=True)
class _FusedRunPayload:
    """What a run-level task needs besides its generator.

    ``plans`` makes the run a comparison: its one cell plans every
    labelled mechanism instead of the spec's own.
    """

    spec: ScenarioSpec
    root_seed: int
    plans: Optional[LabelledMechanisms] = None

    def fingerprint(self) -> str:
        """The campaign's address: the spec's fingerprint, covering
        every plan's label, mechanism, policy and strategy too."""
        if self.plans is None:
            return self.spec.fingerprint()
        return fingerprint({"spec": self.spec.fingerprint(), "plans": self.plans})


@dataclass(frozen=True)
class _FusedCellPayload:
    """What a cell task needs: a ~100-byte segment descriptor.

    The descriptor names the run's shared fleet; the cell's sub-fleet is
    ``flatnonzero(attachments == cell_id)`` over the shared columns, so
    the payload stays constant-size no matter how large the fleet is.
    """

    spec: ScenarioSpec
    cell_id: int
    descriptor: SharedFleetDescriptor


@dataclass(frozen=True)
class _FusedReduceState:
    """Prologue state carried into a multi-cell run's reduction."""

    run: _FusedRunPayload
    rng_state: Dict[str, Any]
    deep_devices: int
    descriptor: SharedFleetDescriptor
    #: Prologue wall-clock (``generate_s``, ``publish_s``) — carried
    #: for observability; never folded into the run's metric dict.
    phase_timings: Dict[str, float] = field(default_factory=dict)


def _release_fleet(state: _FusedReduceState) -> None:
    """Drop this process's mapping of a run's shared fleet and unlink
    it (idempotent: also a fan-out's abort hook)."""
    shared = _ATTACH_CACHE.pop(state.descriptor.name, None)
    if shared is not None:
        shared.close()
    unlink_descriptor(state.descriptor)


def _fused_cell_task(
    rng: np.random.Generator, address: TaskAddress, payload: _FusedCellPayload
) -> CellSummary:
    """Plan and execute one cell of one multi-cell run.

    ``rng`` is child ``position`` of the rollout seed the run's prologue
    drew after the attachments, ``position`` being the cell's rank among
    the run's populated cells in ascending cell-id order. The cell's
    sub-fleet is sliced out of the run's shared-memory fleet: the
    attachment column's stable argsort groups each cell's indices in
    ascending device order, which is exactly ``flatnonzero`` of the
    equality mask, so the sub-fleet is device-for-device identical to
    ``partition_fleet``'s.
    """
    timer = PhaseTimer()
    with timer.phase("attach"):
        shared = _attached_fleet(payload.descriptor, context=str(address))
        indices = np.flatnonzero(
            shared.extra("attachments") == payload.cell_id
        )
        fleet = shared.fleet.subset(indices)
    (summary,) = _run_cell(fleet, payload.spec, rng, payload.cell_id, timer)
    return summary


def _fused_run_reduce(
    state: _FusedReduceState,
    results: List[CellSummary],
    address: TaskAddress,
) -> RunOutput:
    """Fold a multi-cell run's cell summaries into its output.

    Restores the run generator to its post-prologue state and draws the
    repair rounds per cell in ascending cell order. As the last
    consumer of the run's shared fleet, the reduction also unlinks the
    segment; other processes' mappings close as their LRU entries
    evict.
    """
    try:
        rng = np.random.default_rng()
        rng.bit_generator.state = state.rng_state
        spec = state.run.spec
        timer = PhaseTimer()
        with timer.phase("reduce"):
            repairs = _draw_repairs(spec, results, rng)
        timings = merge_timings(
            [state.phase_timings]
            + [cell.phase_timings for cell in results]
            + [timer.timings()]
        )
        return _finish_run(
            state.run,
            address.run_index,
            results,
            repairs,
            state.deep_devices,
            timings,
        )
    finally:
        _release_fleet(state)


def _fused_run_task(
    rng: np.random.Generator, address: TaskAddress, payload: _FusedRunPayload
) -> Union[RunOutput, FanOut]:
    """One run-level task.

    A single-cell run (a comparison run included) executes whole, here,
    on the run's generator. A multi-cell run runs the prologue and fans
    out one task per non-empty cell, each addressed ``(fingerprint, run,
    cell)`` and seeded ``SeedSequence(rollout_seed).spawn(n)[position]``,
    where the run generator draws ``rollout_seed`` right after the
    attachments.
    """
    spec = payload.spec
    timer = PhaseTimer()
    # A multi-cell run's fleet is generated straight into a staged
    # shared-memory segment, so publishing below is a header write, not
    # a copy. The run generator's draws come in a fixed order: fleet,
    # then (multi-cell) cell attachment and rollout seed.
    staged = None
    if spec.cells.is_multi_cell:
        staged = SharedFleet.allocate(
            spec.n_devices, extras=("attachments",)
        )
    try:
        with timer.phase("generate"):
            fleet = generate_fleet(
                spec.n_devices,
                spec.mixture_obj(),
                rng,
                coverage_mix=spec.coverage,
                out=None if staged is None else staged.column_buffers(),
            )
        deep_devices = _deep_devices(fleet.coverage_histogram())
        if staged is None:
            cells = _run_cell(
                fleet, spec, rng, 0, timer,
                payload.plans and [mechanism for _, mechanism in payload.plans],
            )
            with timer.phase("reduce"):
                repairs = _draw_repairs(spec, cells, rng)
            return _finish_run(
                payload,
                address.run_index,
                cells,
                repairs,
                deep_devices,
                timer.timings(),
            )
        attachments = attach_devices(
            len(fleet),
            MultiCellSpec(
                n_cells=spec.cells.n_cells, weights=spec.cells.weights
            ),
            rng,
        )
        rollout_seed = int(rng.integers(0, 2**32))
        with timer.phase("publish"):
            np.copyto(
                staged.extra_buffer("attachments"),
                np.asarray(attachments, dtype=np.int64),
            )
            shared = staged.seal(fleet)
    except BaseException:
        if staged is not None:
            staged.unlink()
        raise
    cell_ids = np.unique(attachments).tolist()
    items = tuple(
        WorkItem(
            address=TaskAddress(
                address.campaign, address.run_index, cell_id
            ),
            fn=_fused_cell_task,
            payload=_FusedCellPayload(
                spec=spec, cell_id=cell_id, descriptor=shared.descriptor
            ),
            seed=rollout_seed,
            spawn_index=position,
        )
        for position, cell_id in enumerate(cell_ids)
    )
    return FanOut(
        items=items,
        reduce_fn=_fused_run_reduce,
        state=_FusedReduceState(
            run=payload,
            rng_state=rng.bit_generator.state,
            deep_devices=deep_devices,
            descriptor=shared.descriptor,
            phase_timings=timer.timings(),
        ),
        abort_fn=_release_fleet,
    )


def scenario_work_items(
    spec: ScenarioSpec,
    root_seed: int,
    n_runs: int,
    plans: Optional[LabelledMechanisms] = None,
) -> List[WorkItem]:
    """The work items of one scenario campaign (one per run), or with
    ``plans`` of one comparison (see :func:`comparison_campaign`).

    Each item's output carries the run's metric dict, plus its
    :class:`~repro.sim.eventlog.RunLog` when ``spec.record_events`` is
    set.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    payload = _FusedRunPayload(spec=spec, root_seed=int(root_seed), plans=plans)
    campaign = payload.fingerprint()
    return [
        WorkItem(
            address=TaskAddress(campaign, run_index),
            fn=_fused_run_task,
            payload=payload,
            seed=int(root_seed),
            spawn_index=run_index,
        )
        for run_index in range(n_runs)
    ]


def scenario_campaign(
    spec: ScenarioSpec,
    *,
    n_runs: Optional[int] = None,
    seed: Optional[int] = None,
    record_dir: Optional[Union[str, Path]] = None,
) -> Campaign:
    """``spec``'s campaign (cache tag ``scenario/<name>``); it records
    exactly when given a ``record_dir``."""
    root_seed = spec.seed if seed is None else seed
    runs = spec.n_runs if n_runs is None else n_runs
    return Campaign(
        scenario_work_items(
            replace(spec, record_events=record_dir is not None),
            root_seed,
            runs,
        ),
        tag=f"scenario/{spec.name}",
        fingerprint=spec.fingerprint(),
        record_dir=record_dir,
    )


def run_scenario(
    spec: ScenarioSpec,
    *,
    backend: str = "serial",
    workers: Optional[int] = None,
    n_runs: Optional[int] = None,
    seed: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    record_dir: Optional[Union[str, Path]] = None,
    on_partial: Optional[PartialFn] = None,
) -> Dict[str, RunStatistics]:
    """Run ``spec`` through the Monte-Carlo harness and aggregate.

    ``backend`` drains the campaign's task graph in this process
    (``serial``) or on a ``workers``-process pool (``fused``, which
    flattens multi-cell runs into per-cell tasks so runs and cells
    share one pool); the metric arrays are bit-identical either way.
    ``record_dir`` turns on event-log recording: every run writes one
    :class:`~repro.sim.eventlog.RunLog` ``.npz`` into the directory.
    Recording is observability on top of an unchanged simulation —
    metrics are bit-identical with and without it — and bypasses
    ``cache`` (see :class:`~repro.sim.montecarlo.Campaign`).
    ``on_partial`` streams :class:`~repro.sim.dispatch.PartialResult`
    records (per-cell summaries, per-run outputs) back as they
    complete; at one worker both backends stream the same sequence.
    """
    (stats,) = run_campaigns(
        [
            scenario_campaign(
                spec, n_runs=n_runs, seed=seed, record_dir=record_dir
            )
        ],
        backend,
        workers=workers,
        cache=cache,
        on_partial=on_partial,
    )
    return stats


# ----------------------------------------------------------------------
# Comparisons: several plans in one cell
# ----------------------------------------------------------------------
def comparison_campaign(
    spec: ScenarioSpec,
    plans: Sequence[Tuple[str, GroupingMechanism]],
    tag: str,
) -> Campaign:
    """``plans`` compared on ``spec``'s fleets (cache tag
    ``comparison/<tag>``).

    Each run samples one single-cell fleet from ``spec`` and hands every
    labelled mechanism to the one cell (:func:`_run_cell`): planned in
    turn on the run's generator, validated, executed over one common
    horizon; each plan's repair rounds are then drawn in plan order.
    A run's metric dict is every plan's :func:`fold_run` dict, its keys
    prefixed ``label/``; the spec's own mechanism is not planned. A
    one-plan comparison is the spec's scenario run under that prefix.
    Multi-cell specs are rejected, and comparisons never record (a
    :class:`~repro.sim.eventlog.RunLog` holds one log per cell).
    """
    if spec.cells.is_multi_cell:
        raise ConfigurationError(
            f"a comparison runs one cell; scenario {spec.name!r} has "
            f"{spec.cells.n_cells}"
        )
    plans = tuple((str(label), mechanism) for label, mechanism in plans)
    labels = [label for label, _ in plans]
    if not labels or len(set(labels)) != len(labels):
        raise ConfigurationError(
            f"a comparison needs distinct plan labels, got {labels}"
        )
    items = scenario_work_items(
        replace(spec, record_events=False), spec.seed, spec.n_runs, plans
    )
    return Campaign(
        items, tag=f"comparison/{tag}", fingerprint=items[0].address.campaign
    )


def comparison_run(
    spec: ScenarioSpec,
    plans: Sequence[Tuple[str, GroupingMechanism]],
    rng: np.random.Generator,
) -> Dict[str, float]:
    """The metric dict of one comparison run on ``rng``."""
    (item,) = comparison_campaign(replace(spec, n_runs=1), plans, "").items
    return item.fn(rng, item.address, item.payload).metrics


def headline_means(stats: Dict[str, RunStatistics]) -> Dict[str, float]:
    """The pinned headline metrics (means over runs) of one scenario."""
    return {name: stats[name].mean for name in HEADLINE_METRICS}


def scenario_table(
    results: Dict[str, Dict[str, RunStatistics]], runs_label: str
) -> Table:
    """Tabulate per-scenario headline metrics for the CLI."""
    rows: List[Tuple[str, ...]] = []
    for name, stats in results.items():
        rows.append(
            (
                name,
                f"{stats['transmissions'].mean:.1f}",
                f"{stats['mean_wait_s'].mean:.2f}s",
                f"{stats['uptime_s'].mean:.0f}s",
                f"{stats['energy_mj'].mean / 1000:.1f}J",
                f"{stats['segments_sent'].mean:.0f}",
                f"{stats['delivered_fraction'].mean * 100:.1f}%",
            )
        )
    return Table(
        title=f"Scenario campaign metrics ({runs_label} runs each)",
        headers=(
            "scenario",
            "transmissions",
            "mean wait",
            "fleet uptime",
            "fleet energy",
            "segments sent",
            "delivered",
        ),
        rows=tuple(rows),
        notes=(
            "uptime = fleet light-sleep + connected seconds over the "
            "campaign horizon; segments sent includes NACK-driven repair "
            "rounds.",
        ),
    )


def format_spec_row(spec: ScenarioSpec) -> Tuple[str, ...]:
    """One ``scenarios list`` table row."""
    fields = spec.summary_fields()
    return (
        spec.name,
        str(fields["devices"]),
        str(fields["mixture"]),
        str(fields["mechanism"]),
        str(fields["grouping"]),
        format_bytes(int(fields["payload"])),
        f"{fields['collision']:.2f}",
        f"{fields['loss']:.2f}",
        str(fields["cells"]),
        spec.description,
    )
