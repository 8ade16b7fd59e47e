"""Columnar campaign execution: the vectorised fleet path.

Implements the accounting of
:class:`~repro.sim.executor.CampaignExecutor` as NumPy array arithmetic
over the whole fleet at once:

* the directive columns (indices, wake methods, page/connect frames,
  adaptation fields) are read straight from the plan's
  :class:`~repro.core.plan.PlanArrays` and gathered once into device
  order, the row order of the result;
* readiness, realised transmission starts, waits, data segments and
  idle-PO counts are computed as array expressions in that order (per-
  device PO counting is :func:`repro.drx.schedule.v_count_in`, checked
  against the per-device ``count_in`` of ``tests/paging_oracle.py``);
* the result is a :class:`~repro.sim.metrics.CampaignResult`, one column
  table whose ``(n_states, n)`` seconds matrix is folded by
  :func:`~repro.sim.metrics.fold_ledgers` straight into the layout the
  table stores — no per-device Python objects exist on the hot path.

Memory: the working arrays *are* the result's columns (``ready_s``,
``wait_s`` and ``updated_s`` are computed in place), every other
per-row array is freed after its last use, per-row values that are the
same for every row stay scalars, and cheap lookups (the collision-free
random-access base, the data airtime) are gathered again where needed
rather than kept alive. An unrecorded call holds under 96 bytes per
directive beyond its inputs and its 104-byte-per-device result.

The event-driven replay (``tests/executor_oracle.py``) is the
independent oracle; tests pin this path to it (identical
structure, per-device totals within 1e-9). Random-access contention
(non-zero ``collision_probability``) draws from ``rng`` device by device
in directive order — a DA-SC device's adaptation episode first, then
its main random access — so the stream is fixed by the plan alone.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.eventlog import EventLogRecorder

from repro.core.plan import METHOD_CODE, MulticastPlan, WakeMethod, check_rows
from repro.devices.fleet import COVERAGE_ORDER, Fleet
from repro.drx.paging import UE_ID_SPACE, v_paging_frame_offset
from repro.drx.schedule import v_count_in
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.errors import SimulationError
from repro.rrc.procedures import ProcedureTimings
from repro.sim.metrics import CampaignResult, fold_ledgers
from repro.timebase import (
    MS_PER_FRAME,
    frame_after_seconds,
    frames_to_seconds,
    v_frame_after_seconds,
)

_ADAPTATION = METHOD_CODE[WakeMethod.DRX_ADAPTATION]
_EXTENDED = METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER]


def _v_frames_to_seconds(frames: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.timebase.frames_to_seconds` (bit-identical:
    frame counts and their products with ``MS_PER_FRAME`` are exact
    in float64)."""
    seconds = np.multiply(frames, float(MS_PER_FRAME))
    seconds /= 1000.0
    return seconds


def _last_busy_frame(
    updated: np.ndarray, tail: Union[float, np.ndarray]
) -> np.ndarray:
    """Each row's last busy frame: the one its post-data tail ends in."""
    return v_frame_after_seconds(updated + tail)


def _resolve_horizon(horizon_frames: Optional[int], end_s: float) -> int:
    """The observation horizon: ``horizon_frames``, or just past the
    campaign's end when None; a horizon ending earlier is an error."""
    needed = frame_after_seconds(end_s) + 1
    if horizon_frames is None:
        return needed
    if horizon_frames < needed:
        raise SimulationError(
            f"horizon {horizon_frames} frames ends before the campaign "
            f"does ({needed} frames needed)"
        )
    return horizon_frames


def execute_columnar(
    fleet: Fleet,
    plan: MulticastPlan,
    timings: ProcedureTimings = ProcedureTimings(),
    energy_profile: EnergyProfile = DEFAULT_PROFILE,
    horizon_frames: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    recorder: Optional["EventLogRecorder"] = None,
) -> CampaignResult:
    """Run ``plan`` against ``fleet`` with whole-fleet array arithmetic.

    When ``recorder`` is given, the campaign's semantic events are
    emitted as vectorised blocks (see :mod:`repro.sim.eventlog`); the
    caller finalises the recorder into an :class:`EventLog`.
    """
    airtime = timings.airtime
    columns = plan.columns
    n = len(columns)
    dev, method = columns.device, columns.method

    # Every per-row array below is in device order, the result's row
    # order; ``order`` picks the directive row of each until phase 1
    # has gathered all it needs.
    order = np.argsort(dev)
    device, transmission = dev[order], columns.transmission[order]
    is_da = (method == _ADAPTATION)[order]
    is_ept = (method == _EXTENDED)[order]
    any_da, any_ept = bool(is_da.any()), bool(is_ept.any())
    whole_fleet = np.array_equal(device, np.arange(len(fleet)))

    def at_device(column: np.ndarray) -> np.ndarray:
        """``column``'s value for each row (the column itself when the
        plan covers the whole fleet, whose order device order is)."""
        return column if whole_fleet else column[device]

    ra_table = np.array(
        [timings.random_access.base_duration_s(c) for c in COVERAGE_ORDER],
        dtype=np.float64,
    )

    def ra_base() -> np.ndarray:
        """The collision-free random-access duration of each row."""
        return ra_table[at_device(fleet.coverage_codes)]

    # ------------------------------------------------------------------
    # Phase 1: readiness and pre-transmission charges.
    # ------------------------------------------------------------------
    # ``main_ra`` stays None when random access is collision-free: each
    # row's duration is then ra_base(), looked up where it is needed.
    main_ra = episode = ra_attempts = None
    if timings.random_access.collision_probability != 0.0:
        # Contention: draw per device in directive order (DA episode RA
        # first, then the main RA) — the stream the plan fixes.
        main_ra = np.empty(n, dtype=np.float64)
        episode = np.zeros(n, dtype=np.float64) if any_da else None
        attempts = [] if recorder is not None else None  # only logged
        for i, (code, adapted) in enumerate(
            zip(fleet.coverage_codes[dev].tolist(), (method == _ADAPTATION).tolist())
        ):
            coverage = COVERAGE_ORDER[code]
            if adapted:
                episode[i] = timings.adaptation_episode_s(coverage, rng)
            outcome = timings.random_access.perform(coverage, rng)
            main_ra[i] = outcome.duration_s
            if attempts is not None:
                attempts.append(outcome.attempts)
        main_ra = main_ra[order]
        if any_da:
            episode = episode[order]
        if attempts is not None:
            ra_attempts = np.array(attempts, dtype=np.float64)[order]
            del attempts
    elif any_da:
        # Deterministic adaptation episode: RA + setup + reconf + release.
        episode = ra_base()
        episode += airtime.rrc_setup_s
        episode += airtime.rrc_reconfiguration_s
        episode += airtime.rrc_release_s

    # The main busy span starts at the page, or at T322 expiry for an
    # extended page; that frame (in seconds, plus the paging message
    # for a normal page) is when the device wakes for the data.
    busy_start = columns.page_frame[order]
    ready = _v_frames_to_seconds(busy_start)
    ready += airtime.paging_message_s
    page_rx = airtime.paging_message_s
    if any_ept:
        ept = np.flatnonzero(is_ept)
        busy_start[ept] = columns.connect_frame[order[ept]]
        ready[ept] = _v_frames_to_seconds(busy_start[ept])
        page_rx = np.where(is_ept, airtime.extended_paging_s, page_rx)
        del ept
    ready += ra_base() if main_ra is None else main_ra
    ready += airtime.rrc_setup_s

    announce = plan.announce_frame
    if any_da:
        # An adapted device's idle POs up to its main page: the preferred
        # grid until the adaptation page, then the adapted grid from
        # the end of the adaptation episode. The rest comes in phase 3.
        da = np.flatnonzero(is_da)
        rows, dev_da = order[da], device[da]
        adapt_frame = columns.adaptation_page_frame[rows]
        adapt_cycle = columns.adapted_cycle[rows]
        adapt_after = v_frame_after_seconds(
            _v_frames_to_seconds(adapt_frame)
            + airtime.paging_message_s
            + episode[da]
        )
        adapt_after += 1
        da_count = v_count_in(
            v_paging_frame_offset(
                fleet.imsis[dev_da] % UE_ID_SPACE, adapt_cycle, fleet.nb
            ),
            adapt_cycle,
            adapt_after,
            busy_start[da],
        )
        del rows, adapt_cycle, adapt_after
        da_count += v_count_in(
            fleet.phases[dev_da], fleet.periods[dev_da], announce, adapt_frame
        )
        del dev_da, adapt_frame
    if recorder is None:
        del order  # a recording reads the adaptation pages through it

    # ------------------------------------------------------------------
    # Phase 2: realised transmission starts.
    # ------------------------------------------------------------------
    rx_by_tx = plan.payload_bytes * 8.0 / plan.transmissions.rate_bps
    nominal = _v_frames_to_seconds(plan.transmissions.frame)
    latest_ready = np.full(nominal.size, -np.inf)
    np.maximum.at(latest_ready, transmission, ready)
    starts = np.maximum(nominal, latest_ready)
    del nominal, latest_ready

    # ------------------------------------------------------------------
    # Phase 3: per-device accounting over the horizon.
    # ------------------------------------------------------------------
    updated = starts[transmission]
    wait = updated - ready
    updated += rx_by_tx[transmission]
    release = timings.release_s()
    tail = (
        np.where(is_da, release + timings.restore_s(), release) if any_da else release
    )
    main_end = updated + tail
    end_s = float(main_end.max()) if n else 0.0
    horizon = _resolve_horizon(horizon_frames, end_s)
    horizon_s = frames_to_seconds(horizon)

    check_rows(
        main_end > horizon_s + 1e-9,
        f"horizon {horizon} frames ends before device {{d}} finishes at {{e:.2f}}s",
        SimulationError,
        d=device,
        e=main_end,
    )
    check_rows(
        wait < -1e-9, "negative wait for device {d}", SimulationError, d=device
    )  # pragma: no cover - guarded by start computation
    np.maximum(0.0, wait, out=wait)

    # Idle-PO counts (the light-sleep grid), all integer arithmetic: the
    # POs from the announcement to the horizon, less those in the main
    # busy span.
    busy_after = v_frame_after_seconds(main_end)
    del main_end
    busy_after += 1
    phases, periods = at_device(fleet.phases), at_device(fleet.periods)
    busy = v_count_in(phases, periods, busy_start, busy_after)
    if any_da:
        da_count += v_count_in(phases[da], periods[da], busy_after[da], horizon)
    del busy_start, busy_after
    po_count = np.subtract(
        v_count_in(phases, periods, announce, horizon), busy, out=busy
    )
    del busy, phases, periods
    if any_ept:
        po_count -= is_ept  # extended page charged as RX
    if any_da:
        po_count[da] = da_count
        del da, da_count

    # The fold reads ``ra_base`` only for adapted rows.
    ra = ra_base() if main_ra is None or any_da else None
    seconds = fold_ledgers(
        horizon_s,
        po_count=po_count,
        po_monitor_s=airtime.po_monitor_s,
        page_rx=page_rx,
        paging_message_s=airtime.paging_message_s,
        is_da=is_da,
        ra_base=ra,
        main_ra=ra if main_ra is None else main_ra,
        episode=episode,
        rrc_setup_s=airtime.rrc_setup_s,
        tail=tail,
        wait=wait,
        rx=rx_by_tx[transmission],
    )
    if recorder is not None:
        # Columns the result's own columns determine are logged as
        # lookups, computed only when the log is read.
        if main_ra is None:
            main_ra = partial(np.take, ra_table, at_device(fleet.coverage_codes))
        _emit_events(
            recorder,
            plan,
            timings,
            horizon,
            energy_profile=energy_profile,
            order=order,
            device=device,
            transmission=transmission,
            is_da=is_da,
            episode=episode,
            ra_base=ra,
            main_ra=main_ra,
            ra_attempts=ra_attempts,
            ready=ready,
            wait=wait,
            rx=partial(np.take, rx_by_tx, transmission),
            po_count=po_count,
            busy_end=partial(_last_busy_frame, updated, tail),
            starts=starts,
            rx_by_tx=rx_by_tx,
        )
    return CampaignResult(
        device=device,
        transmission=transmission,
        ready_s=ready,
        wait_s=wait,
        updated_s=updated,
        seconds=seconds,
        actual_start_s=starts,
        horizon_frames=horizon,
        mechanism=plan.mechanism,
        energy_profile=energy_profile,
    )


def _emit_events(
    recorder: "EventLogRecorder",
    plan: MulticastPlan,
    timings: ProcedureTimings,
    horizon: int,
    *,
    energy_profile: EnergyProfile,
    order: np.ndarray,
    device: np.ndarray,
    transmission: np.ndarray,
    is_da: np.ndarray,
    episode: Optional[np.ndarray],
    ra_base: Optional[np.ndarray],
    main_ra: Union[np.ndarray, Callable[[], np.ndarray]],
    ra_attempts: Optional[np.ndarray],
    ready: np.ndarray,
    wait: np.ndarray,
    rx: Callable[[], np.ndarray],
    po_count: np.ndarray,
    busy_end: Callable[[], np.ndarray],
    starts: np.ndarray,
    rx_by_tx: np.ndarray,
) -> None:
    """Emit the campaign's event rows as whole-fleet blocks.

    The per-row arguments are in the executor's device order (``order``
    picks each row's directive) and the blocks of computed values list
    their rows in that order; the paging blocks come straight from the
    plan's directive columns. The log sorts its rows canonically, so the
    order of rows within a block does not reach it. Recording buffers
    the columns the accounting computed, and columns that follow from
    them (the frames, the collision-free random access, the data
    airtime) as lookups the log calls when it materialises, so a
    recorded run keeps little beyond its result. Every frame/duration
    here is the exact float the accounting used, so the log round-trips
    bit-identically through the STRICT replayer regardless of which
    executor emitted it.
    """
    from repro.sim.events import EventKind
    from repro.sim.eventlog import profile_meta

    columns = plan.columns
    dev, tx = columns.device, columns.transmission
    page_frame = columns.page_frame
    extended = columns.method == _EXTENDED
    airtime = timings.airtime
    recorder.set_meta(
        emitter="columnar",
        energy_profile=profile_meta(energy_profile),
        mechanism=plan.mechanism,
        n_devices=int(dev.size),
        n_transmissions=len(plan.transmissions),
        payload_bytes=plan.payload_bytes,
        announce_frame=plan.announce_frame,
        horizon_frames=int(horizon),
        po_monitor_s=airtime.po_monitor_s,
        paging_message_s=airtime.paging_message_s,
        extended_paging_s=airtime.extended_paging_s,
        rrc_setup_s=airtime.rrc_setup_s,
        release_s=timings.release_s(),
        restore_s=timings.restore_s(),
    )
    recorder.emit_block(
        EventKind.PO_MONITOR, plan.announce_frame, device, transmission, po_count
    )
    if not np.any(extended):
        if dev.size:
            recorder.emit_block(
                EventKind.PAGE, page_frame, dev, tx, airtime.paging_message_s
            )
    else:
        normal = ~extended
        if np.any(normal):
            recorder.emit_block(
                EventKind.PAGE,
                page_frame[normal],
                dev[normal],
                tx[normal],
                airtime.paging_message_s,
            )
        recorder.emit_block(
            EventKind.EXTENDED_PAGE,
            page_frame[extended],
            dev[extended],
            tx[extended],
            airtime.extended_paging_s,
        )
        recorder.emit_block(
            EventKind.T322_EXPIRY,
            columns.connect_frame[extended],
            dev[extended],
            tx[extended],
        )
    if np.any(is_da):
        da = np.flatnonzero(is_da)
        recorder.emit_block(
            EventKind.ADAPTATION_PAGE,
            columns.adaptation_page_frame[order[da]],
            device[da],
            transmission[da],
            episode[da],
            ra_base[da],
        )
    ready_frame = partial(v_frame_after_seconds, ready)
    recorder.emit_block(
        EventKind.CONNECTION_READY, ready_frame, device, transmission, main_ra, ready
    )
    if ra_attempts is not None:
        recorder.emit_block(
            EventKind.RA_ATTEMPT,
            ready_frame,
            device,
            transmission,
            ra_attempts,
            main_ra,
        )
    recorder.emit_block(
        EventKind.DEVICE_DONE, busy_end, device, transmission, wait, rx
    )

    tx_index = np.arange(starts.size, dtype=np.int64)
    end_tx = starts + rx_by_tx
    frame = plan.transmissions.frame
    recorder.emit_block(
        EventKind.TX_START, frame, -1, tx_index, starts, plan.transmissions.rate_bps
    )
    recorder.emit_block(
        EventKind.TX_END, v_frame_after_seconds(end_tx), -1, tx_index, end_tx
    )
