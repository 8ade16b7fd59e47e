"""Columnar campaign execution: the vectorised fleet path.

Implements the accounting of
:class:`~repro.sim.executor.CampaignExecutor` as NumPy array arithmetic
over the whole fleet at once:

* the directive columns (indices, wake methods, page/connect frames,
  adaptation fields) are read straight from the plan's
  :class:`~repro.core.plan.PlanArrays`;
* readiness, realised transmission starts, waits, data segments and
  idle-PO counts are computed as array expressions (per-device PO
  counting is :func:`repro.drx.schedule.v_count_in`, the array form
  of :meth:`~repro.drx.schedule.PoSchedule.count_in`);
* the result is a :class:`~repro.sim.metrics.CampaignResult`, one column
  table whose ``(n_states, n)`` seconds matrix is folded by
  :func:`~repro.sim.metrics.fold_ledgers` — no per-device Python
  objects exist on the hot path.

The event-driven replay (:class:`~repro.sim.replay.EventDrivenCampaign`)
is the independent oracle; tests pin this path to it (identical
structure, per-device totals within 1e-9). Random-access contention
(non-zero ``collision_probability``) draws from ``rng`` device by device
in row order — a DA-SC device's adaptation episode first, then its
main random access — so the stream is fixed by the plan alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.eventlog import EventLogRecorder

from repro.core.plan import METHOD_CODE, MulticastPlan, WakeMethod, check_rows
from repro.devices.fleet import COVERAGE_ORDER, Fleet
from repro.drx.paging import v_paging_frame_offset
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
    """Vectorised :func:`repro.timebase.frames_to_seconds` (bit-identical)."""
    return frames * MS_PER_FRAME / 1000.0


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
    dev, tx, method = columns.device, columns.transmission, columns.method
    page_frame, connect_frame = columns.page_frame, columns.connect_frame
    adapt_frame, adapt_cycle = columns.adaptation_page_frame, columns.adapted_cycle

    is_da = method == _ADAPTATION
    is_ept = method == _EXTENDED

    phases = fleet.phases[dev]
    periods = fleet.periods[dev]
    coverage_codes = fleet.coverage_codes[dev]

    # ------------------------------------------------------------------
    # Phase 1: readiness and pre-transmission charges.
    # ------------------------------------------------------------------
    ra_base = np.array(
        [timings.random_access.base_duration_s(c) for c in COVERAGE_ORDER],
        dtype=np.float64,
    )[coverage_codes]
    ra_attempts = None
    if timings.random_access.collision_probability == 0.0:
        main_ra = ra_base
        # Deterministic adaptation episode: RA + setup + reconf + release.
        episode = (
            (ra_base + airtime.rrc_setup_s)
            + airtime.rrc_reconfiguration_s
            + airtime.rrc_release_s
        )
    else:
        # Contention: draw per device in directive order (DA episode RA
        # first, then the main RA) — the stream the plan fixes.
        main_ra = np.empty(n, dtype=np.float64)
        ra_attempts = np.empty(n, dtype=np.float64)
        episode = np.zeros(n, dtype=np.float64)
        for i, (code, adapted) in enumerate(
            zip(coverage_codes.tolist(), is_da.tolist())
        ):
            coverage = COVERAGE_ORDER[code]
            if adapted:
                episode[i] = timings.adaptation_episode_s(coverage, rng)
            outcome = timings.random_access.perform(coverage, rng)
            main_ra[i] = outcome.duration_s
            ra_attempts[i] = float(outcome.attempts)

    page_rx = np.where(is_ept, airtime.extended_paging_s, airtime.paging_message_s)
    wake_s = np.where(
        is_ept,
        _v_frames_to_seconds(connect_frame),
        _v_frames_to_seconds(page_frame) + airtime.paging_message_s,
    )
    ready = wake_s + main_ra + airtime.rrc_setup_s

    adapt_busy_end = np.zeros(n, dtype=np.int64)
    if np.any(is_da):
        adapt_busy_end[is_da] = v_frame_after_seconds(
            _v_frames_to_seconds(adapt_frame[is_da])
            + airtime.paging_message_s
            + episode[is_da]
        )

    # ------------------------------------------------------------------
    # Phase 2: realised transmission starts.
    # ------------------------------------------------------------------
    rate_bps = plan.transmissions.rate_bps
    nominal = _v_frames_to_seconds(plan.transmissions.frame)
    latest_ready = np.full(nominal.size, -np.inf)
    np.maximum.at(latest_ready, tx, ready)
    starts = np.maximum(nominal, latest_ready)

    # ------------------------------------------------------------------
    # Phase 3: per-device accounting over the horizon.
    # ------------------------------------------------------------------
    rx = plan.payload_bytes * 8.0 / rate_bps[tx]
    tail = np.where(
        is_da,
        timings.release_s() + timings.restore_s(),
        timings.release_s(),
    )
    start = starts[tx]
    main_end = start + rx + tail
    end_s = float(main_end.max()) if n else 0.0
    horizon = _resolve_horizon(horizon_frames, end_s)
    horizon_s = frames_to_seconds(horizon)

    check_rows(
        main_end > horizon_s + 1e-9,
        f"horizon {horizon} frames ends before device {{d}} finishes at {{e:.2f}}s",
        SimulationError,
        d=dev,
        e=main_end,
    )
    wait = start - ready
    check_rows(
        wait < -1e-9, "negative wait for device {d}", SimulationError, d=dev
    )  # pragma: no cover - guarded by start computation
    wait = np.maximum(0.0, wait)

    # Idle-PO counts (the light-sleep grid), all integer arithmetic.
    main_busy_start = np.where(is_ept, connect_frame, page_frame)
    main_busy_end = v_frame_after_seconds(main_end)
    announce = plan.announce_frame
    po_count = v_count_in(phases, periods, announce, horizon) - v_count_in(
        phases, periods, main_busy_start, main_busy_end + 1
    )
    po_count = po_count - is_ept.astype(np.int64)  # extended page charged as RX
    if np.any(is_da):
        da = np.nonzero(is_da)[0]
        adapted_phase = v_paging_frame_offset(
            fleet.ue_ids[dev[da]],
            adapt_cycle[da],
            (fleet.nb_numerators[dev[da]], fleet.nb_denominators[dev[da]]),
        )
        da_count = v_count_in(phases[da], periods[da], announce, adapt_frame[da])
        da_count += v_count_in(
            adapted_phase, adapt_cycle[da], adapt_busy_end[da] + 1, main_busy_start[da]
        )
        da_count += v_count_in(
            phases[da], periods[da], main_busy_end[da] + 1, horizon
        )
        po_count[da] = da_count

    seconds = fold_ledgers(
        horizon_s,
        po_count=po_count,
        po_monitor_s=airtime.po_monitor_s,
        page_rx=page_rx,
        paging_message_s=airtime.paging_message_s,
        is_da=is_da,
        ra_base=ra_base,
        main_ra=main_ra,
        episode=episode,
        rrc_setup_s=airtime.rrc_setup_s,
        tail=tail,
        wait=wait,
        rx=rx,
    )

    if recorder is not None:
        _emit_events(
            recorder,
            plan,
            timings,
            horizon,
            energy_profile=energy_profile,
            dev=dev,
            tx=tx,
            is_da=is_da,
            is_ept=is_ept,
            page_frame=page_frame,
            connect_frame=connect_frame,
            adapt_frame=adapt_frame,
            episode=episode,
            ra_base=ra_base,
            main_ra=main_ra,
            ra_attempts=ra_attempts,
            ready=ready,
            wait=wait,
            rx=rx,
            po_count=po_count,
            page_rx=page_rx,
            main_busy_end=main_busy_end,
            starts=starts,
            rate_bps=rate_bps,
        )

    # Sorting the matrix's columns by device yields the F-contiguous
    # layout the result stores, so the table keeps this copy as is.
    order = np.argsort(dev)
    return CampaignResult(
        device=dev[order],
        transmission=tx[order],
        ready_s=ready[order],
        wait_s=wait[order],
        updated_s=(start + rx)[order],
        seconds=seconds[:, order],
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
    dev: np.ndarray,
    tx: np.ndarray,
    is_da: np.ndarray,
    is_ept: np.ndarray,
    page_frame: np.ndarray,
    connect_frame: np.ndarray,
    adapt_frame: np.ndarray,
    episode: np.ndarray,
    ra_base: np.ndarray,
    main_ra: np.ndarray,
    ra_attempts: Optional[np.ndarray],
    ready: np.ndarray,
    wait: np.ndarray,
    rx: np.ndarray,
    po_count: np.ndarray,
    page_rx: np.ndarray,
    main_busy_end: np.ndarray,
    starts: np.ndarray,
    rate_bps: np.ndarray,
) -> None:
    """Emit the campaign's event rows as whole-fleet blocks.

    Every frame/duration here is the exact float the accounting above
    used, so the log round-trips bit-identically through the STRICT
    replayer regardless of which executor emitted it.
    """
    from repro.sim.events import EventKind
    from repro.sim.eventlog import profile_meta

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
    announce = plan.announce_frame
    recorder.emit_block(
        EventKind.PO_MONITOR, announce, dev, tx, po_count.astype(np.float64)
    )
    normal = ~is_ept
    if np.any(normal):
        recorder.emit_block(
            EventKind.PAGE, page_frame[normal], dev[normal], tx[normal], page_rx[normal]
        )
    if np.any(is_ept):
        recorder.emit_block(
            EventKind.EXTENDED_PAGE,
            page_frame[is_ept],
            dev[is_ept],
            tx[is_ept],
            page_rx[is_ept],
        )
        recorder.emit_block(
            EventKind.T322_EXPIRY, connect_frame[is_ept], dev[is_ept], tx[is_ept]
        )
    if np.any(is_da):
        recorder.emit_block(
            EventKind.ADAPTATION_PAGE,
            adapt_frame[is_da],
            dev[is_da],
            tx[is_da],
            episode[is_da],
            ra_base[is_da],
        )
    recorder.emit_block(
        EventKind.CONNECTION_READY, v_frame_after_seconds(ready), dev, tx, main_ra, ready
    )
    if ra_attempts is not None:
        recorder.emit_block(
            EventKind.RA_ATTEMPT,
            v_frame_after_seconds(ready),
            dev,
            tx,
            ra_attempts,
            main_ra,
        )
    recorder.emit_block(EventKind.DEVICE_DONE, main_busy_end, dev, tx, wait, rx)

    tx_index = np.arange(starts.size, dtype=np.int64)
    end_tx = starts + plan.payload_bytes * 8.0 / rate_bps
    frame = plan.transmissions.frame
    recorder.emit_block(EventKind.TX_START, frame, -1, tx_index, starts, rate_bps)
    recorder.emit_block(
        EventKind.TX_END, v_frame_after_seconds(end_tx), -1, tx_index, end_tx
    )
