"""Scalar reference planners and plan validator — the oracle.

These are the per-device object loops the mechanisms ran before plans
became columnar: every member is materialised (``fleet[i]``) and its
paging arithmetic is redone per query on its scalar
:class:`PoSchedule` (``tests/paging_oracle.py``). The array planners and the
whole-array :meth:`~repro.core.plan.MulticastPlan.validate` are
property-tested against them (``tests/properties/test_prop_plan_columns.py``),
:func:`~repro.core.plan.plan_pages` against :func:`scalar_pages`,
:func:`~repro.enb.paging_channel.paging_load` against :func:`scalar_pack`,
and the carrier report's overlap count against
:func:`count_overlaps_reference` (``tests/properties/test_prop_scheduler.py``).
:func:`from_directives` turns a list of directive objects into the plan
columns, for tests that build plans by hand.

Each ``plan_*`` function consumes ``rng`` exactly as the mechanism
does: the policy's grouping first, then (DR-SI only) one scalar draw
per notified device, groups in time order, members in member order. It
returns a :class:`ScalarPlan`: the plan plus the member tuple of each
of its transmissions, the membership the plan itself stores only in
its directive columns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from paging_oracle import PoSchedule, pattern_of, schedule_of

from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import (
    METHOD_CODE,
    METHOD_ORDER,
    PLAN_COLUMNS,
    DeviceDirective,
    MulticastPlan,
    PlanArrays,
    TransmissionTable,
    WakeMethod,
)
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.errors import CoverageError, PlanError
from repro.enb.paging_channel import PagingLoadReport
from repro.phy.airtime import payload_airtime_frames
from repro.rrc.timers import T322Timer
from repro.timebase import ms_to_frames


# ----------------------------------------------------------------------
# Shared per-device helpers
# ----------------------------------------------------------------------
def from_directives(directives: Sequence[DeviceDirective]) -> PlanArrays:
    """The plan columns of a sequence of directive objects.

    A directive's T322 must be the one its columns imply: present only
    on extended pages, armed at the page frame and expiring at the
    connect frame. Every other row check is the columns' own.
    """
    rows = []
    for d in directives:
        extended = d.method is WakeMethod.EXTENDED_PAGE_TIMER
        if (d.t322 is not None) != extended or (
            extended
            and (d.t322.armed_at_frame, d.t322.expires_at_frame)
            != (d.page_frame, d.connect_frame)
        ):
            raise PlanError(
                f"device {d.device_index}: T322 belongs to extended pages, "
                "armed at the page frame and expiring at the connect frame"
            )
        rows.append(
            (
                d.device_index,
                d.transmission_index,
                METHOD_CODE[d.method],
                d.page_frame,
                d.connect_frame,
                -1 if d.adaptation_page_frame is None else d.adaptation_page_frame,
                0 if d.adapted_cycle is None else int(d.adapted_cycle),
            )
        )
    table = np.array(rows, dtype=np.int64).reshape(-1, len(PLAN_COLUMNS))
    return PlanArrays(*table.T)


def connect_slack_frames(context: PlanningContext, device: NbIotDevice) -> int:
    """Frames from page to connected-and-ready: paging reception +
    collision-free random access + RRC setup."""
    airtime = context.timings.airtime
    seconds = (
        airtime.paging_message_s
        + context.timings.random_access.base_duration_s(device.coverage)
        + airtime.rrc_setup_s
    )
    return ms_to_frames(seconds * 1000.0)


def adaptation_busy_frames(context: PlanningContext, device: NbIotDevice) -> int:
    """Frames the DA-SC adaptation episode keeps a device busy."""
    airtime = context.timings.airtime
    seconds = (
        airtime.paging_message_s
        + context.timings.random_access.base_duration_s(device.coverage)
        + airtime.rrc_setup_s
        + airtime.rrc_reconfiguration_s
        + airtime.rrc_release_s
    )
    return ms_to_frames(seconds * 1000.0)


def page_frame_in_window(
    schedule: PoSchedule,
    window_start: int,
    transmission_frame: int,
    slack_frames: int,
) -> int:
    """The latest PO leaving ``slack_frames`` before the transmission,
    else the latest window PO; PlanError when the window has none."""
    latest_with_slack = schedule.last_at_or_before(
        transmission_frame - slack_frames
    )
    if latest_with_slack is not None and latest_with_slack >= window_start:
        return latest_with_slack
    fallback = schedule.last_at_or_before(transmission_frame)
    if fallback is None or fallback < window_start:
        raise PlanError(f"no PO in window [{window_start}, {transmission_frame}]")
    return fallback


class ScalarTransmission(NamedTuple):
    """One oracle transmission: its members and its table row."""

    members: Tuple[int, ...]
    frame: int
    rate_bps: float
    duration_frames: int


class ScalarPlan(NamedTuple):
    """An oracle plan and the member tuple of each transmission."""

    plan: MulticastPlan
    members: List[Tuple[int, ...]]


def build_transmission(
    frame: int,
    device_indices: Sequence[int],
    fleet: Fleet,
    payload_bytes: int,
) -> ScalarTransmission:
    """Size the bearer for the group and build the transmission."""
    rate = fleet.group_rate_bps(list(device_indices))
    return ScalarTransmission(
        members=tuple(int(i) for i in device_indices),
        frame=frame,
        rate_bps=rate,
        duration_frames=payload_airtime_frames(payload_bytes, rate),
    )


def _plan(
    mechanism: GroupingMechanism,
    context: PlanningContext,
    transmissions: List[ScalarTransmission],
    directives: List[DeviceDirective],
) -> ScalarPlan:
    plan = MulticastPlan(
        mechanism=mechanism.name,
        standards_compliant=mechanism.standards_compliant,
        respects_preferred_drx=mechanism.respects_preferred_drx,
        announce_frame=context.announce_frame,
        inactivity_timer_frames=context.inactivity_timer_frames,
        payload_bytes=context.payload_bytes,
        transmissions=TransmissionTable(
            frame=[t.frame for t in transmissions],
            rate_bps=[t.rate_bps for t in transmissions],
            duration_frames=[t.duration_frames for t in transmissions],
        ),
        directives=from_directives(directives),
        grouping=mechanism.grouping_name,
    )
    return ScalarPlan(plan, [t.members for t in transmissions])


def _in_time_order(decision) -> list:
    """The decision's groups as ``(start, end, members)`` tuples, by
    window end (stable: selection order among groups sharing a
    window)."""
    groups = [
        (
            int(decision.start[g]),
            int(decision.end[g]),
            decision.members[decision.bounds[g] : decision.bounds[g + 1]].tolist(),
        )
        for g in range(decision.n_groups)
    ]
    return sorted(groups, key=lambda group: group[1])


def _paged(device_index: int, tx_index: int, page: int) -> DeviceDirective:
    return DeviceDirective(
        device_index=device_index,
        transmission_index=tx_index,
        method=WakeMethod.PAGED_IN_WINDOW,
        page_frame=page,
        connect_frame=page,
    )


# ----------------------------------------------------------------------
# Planners
# ----------------------------------------------------------------------
def plan_dr_sc(mechanism, fleet, context, rng=None) -> ScalarPlan:
    decision = mechanism.policy.group(fleet, context, rng)
    transmissions, directives = [], []
    for new_index, (start, end, members) in enumerate(_in_time_order(decision)):
        transmission = build_transmission(
            end - 1, members, fleet, context.payload_bytes
        )
        transmissions.append(transmission)
        for device_index in transmission.members:
            device = fleet[device_index]
            page = page_frame_in_window(
                schedule_of(device),
                start,
                end - 1,
                connect_slack_frames(context, device),
            )
            directives.append(_paged(device_index, new_index, page))
    return _plan(mechanism, context, transmissions, directives)


def _choose_cycle(
    strategy: AdaptationStrategy,
    device: NbIotDevice,
    earliest_po: int,
    window_hi: int,
) -> Tuple[DrxCycle, int]:
    usable_span = window_hi - earliest_po + 1
    candidates: List[DrxCycle] = []
    cycle = device.cycle
    while True:
        if int(cycle) < int(device.cycle):
            candidates.append(cycle)
        if int(cycle) == DrxCycle.MIN_FRAMES:
            break
        cycle = cycle.shorter()
    if strategy is AdaptationStrategy.LARGEST_WITHIN_TI:
        candidates = [c for c in candidates if int(c) <= usable_span]
    for candidate in candidates:
        grid = schedule_of(device, candidate)
        po = grid.first_at_or_after(earliest_po)
        if po <= window_hi:
            return candidate, po
    raise PlanError(
        f"no ladder cycle creates a PO in [{earliest_po}, {window_hi}] "
        f"for device with cycle {device.cycle!r}"
    )


def plan_da_sc(mechanism, fleet, context, rng=None) -> ScalarPlan:
    decision = mechanism.policy.group(fleet, context, rng)
    transmissions, directives = [], []
    for group_index, (window_lo, t, members) in enumerate(_in_time_order(decision)):
        window_hi = t - 1
        for device_index in members:
            device = fleet[device_index]
            schedule = schedule_of(device)
            last_window_po = schedule.last_at_or_before(window_hi)
            if last_window_po is not None and last_window_po >= window_lo:
                page = page_frame_in_window(
                    schedule,
                    window_lo,
                    window_hi,
                    connect_slack_frames(context, device),
                )
                directives.append(_paged(device_index, group_index, page))
                continue
            adaptation_frame = schedule.last_before(window_lo)
            if adaptation_frame is None:
                raise PlanError(f"device {device_index} has no PO before the window")
            earliest_po = max(
                window_lo,
                adaptation_frame + adaptation_busy_frames(context, device) + 1,
            )
            adapted_cycle, window_po = _choose_cycle(
                mechanism.strategy, device, earliest_po, window_hi
            )
            directives.append(
                DeviceDirective(
                    device_index=device_index,
                    transmission_index=group_index,
                    method=WakeMethod.DRX_ADAPTATION,
                    page_frame=window_po,
                    connect_frame=window_po,
                    adaptation_page_frame=adaptation_frame,
                    adapted_cycle=adapted_cycle,
                )
            )
        transmissions.append(
            build_transmission(t, members, fleet, context.payload_bytes)
        )
    return _plan(mechanism, context, transmissions, directives)


def plan_dr_si(mechanism, fleet, context, rng) -> ScalarPlan:
    decision = mechanism.policy.group(fleet, context, rng)
    transmissions, directives = [], []
    for group_index, (window_lo, t, members) in enumerate(_in_time_order(decision)):
        window_hi = t - 1
        for device_index in members:
            device = fleet[device_index]
            schedule = schedule_of(device)
            last_window_po = schedule.last_at_or_before(window_hi)
            if last_window_po is not None and last_window_po >= window_lo:
                page = page_frame_in_window(
                    schedule,
                    window_lo,
                    window_hi,
                    connect_slack_frames(context, device),
                )
                directives.append(_paged(device_index, group_index, page))
                continue
            page = schedule.first_at_or_after(context.announce_frame)
            assert page < window_lo
            wake = int(rng.integers(window_lo, window_hi + 1))
            directives.append(
                DeviceDirective(
                    device_index=device_index,
                    transmission_index=group_index,
                    method=WakeMethod.EXTENDED_PAGE_TIMER,
                    page_frame=page,
                    connect_frame=wake,
                    t322=T322Timer(armed_at_frame=page, expires_at_frame=wake),
                )
            )
        transmissions.append(
            build_transmission(t, members, fleet, context.payload_bytes)
        )
    return _plan(mechanism, context, transmissions, directives)


def plan_unicast(mechanism, fleet, context, rng=None) -> ScalarPlan:
    def start_key(i: int) -> tuple:
        page = schedule_of(fleet[i]).first_at_or_after(context.announce_frame)
        return (page + connect_slack_frames(context, fleet[i]), page)

    transmissions, directives = [], []
    for index, device_index in enumerate(sorted(range(len(fleet)), key=start_key)):
        device = fleet[device_index]
        page = schedule_of(device).first_at_or_after(context.announce_frame)
        start = page + connect_slack_frames(context, device)
        transmissions.append(
            build_transmission(start, [device_index], fleet, context.payload_bytes)
        )
        directives.append(
            DeviceDirective(
                device_index=device_index,
                transmission_index=index,
                method=WakeMethod.IMMEDIATE_PAGE,
                page_frame=page,
                connect_frame=page,
            )
        )
    return _plan(mechanism, context, transmissions, directives)


def scalar_plan(
    mechanism: GroupingMechanism,
    fleet: Fleet,
    context: PlanningContext,
    rng: Optional[np.random.Generator] = None,
) -> ScalarPlan:
    """The oracle plan of ``mechanism`` (dispatch on its type)."""
    for kind, planner in (
        (DrScMechanism, plan_dr_sc),
        (DaScMechanism, plan_da_sc),
        (DrSiMechanism, plan_dr_si),
        (UnicastBaseline, plan_unicast),
    ):
        if isinstance(mechanism, kind):
            return planner(mechanism, fleet, context, rng)
    raise TypeError(f"no scalar oracle for {type(mechanism).__name__}")


# ----------------------------------------------------------------------
# Paging records
# ----------------------------------------------------------------------
def scalar_pages(fleet: Fleet, plan: MulticastPlan) -> List[tuple]:
    """The paging records of ``plan``, one directive object at a time.

    Rows of ``(row, device, frame, subframe, notified)`` in directive
    order: a DR-SI notification, or a page followed — for a DA-SC
    adaptation — by the adaptation page, each at the device's own PO
    subframe.
    """
    records = []
    for row, d in enumerate(plan.directives):
        subframe = pattern_of(fleet[d.device_index]).subframe
        notified = d.method is WakeMethod.EXTENDED_PAGE_TIMER
        records.append((row, d.device_index, d.page_frame, subframe, notified))
        if d.method is WakeMethod.DRX_ADAPTATION:
            records.append(
                (row, d.device_index, d.adaptation_page_frame, subframe, False)
            )
    return records


def scalar_pack(
    fleet: Fleet, plan: MulticastPlan, max_records: int
) -> PagingLoadReport:
    """The paging report of the plan's :func:`scalar_pages`, one
    record at a time.

    Every row is one entry at its (frame, subframe) PO. POs in
    ascending order each keep their first ``max_records`` entries by
    device index; a kept entry counts as a page or a notification, and
    the rest of the PO's devices are its overflow.
    """
    by_po = defaultdict(list)
    for _, device, frame, subframe, notified in scalar_pages(fleet, plan):
        by_po[(frame, subframe)].append((device, notified))
    pages = notifications = largest = 0
    overflowed = []
    for (frame, subframe), entries in sorted(by_po.items()):
        entries.sort()
        for _, notified in entries[:max_records]:
            if notified:
                notifications += 1
            else:
                pages += 1
        largest = max(largest, min(len(entries), max_records))
        if len(entries) > max_records:
            spilled = tuple(device for device, _ in entries[max_records:])
            overflowed.append((frame, subframe, spilled))
    return PagingLoadReport(
        total_pages=pages,
        notifications=notifications,
        occupied_occasions=len(by_po),
        max_records_in_message=largest,
        overflowed=tuple(overflowed),
    )


# ----------------------------------------------------------------------
# Validator
# ----------------------------------------------------------------------
def scalar_check_row(
    device: int, method: int, page: int, connect: int, adaptation: int, cycle: int
) -> None:
    """One directive row's well-formedness, field by field.

    Unused adaptation fields are encoded as in the plan columns
    (``adaptation == -1``, ``cycle == 0``).
    """
    if not 0 <= method < len(METHOD_ORDER):
        raise PlanError(f"unknown wake-method code {method}")
    method = METHOD_ORDER[method]
    if device < 0:
        raise PlanError(f"device index must be >= 0, got {device}")
    if page < 0:
        raise PlanError(f"page frame must be >= 0, got {page}")
    if connect < page and method is not WakeMethod.DRX_ADAPTATION:
        raise PlanError(f"device {device} connects at {connect} before its page")
    if method is WakeMethod.DRX_ADAPTATION:
        if adaptation < 0 or cycle == 0:
            raise PlanError(f"device {device}: DRX adaptation requires its fields")
        DrxCycle(cycle)  # a ladder value
    elif adaptation != -1 or cycle != 0:
        raise PlanError(f"device {device}: adaptation fields set for {method}")
    if method is WakeMethod.EXTENDED_PAGE_TIMER:
        T322Timer(armed_at_frame=page, expires_at_frame=connect)


def scalar_validate(
    plan: MulticastPlan, fleet: Fleet, *, partial: bool = False
) -> None:
    """Per-directive re-derivation of every plan claim (first violation)."""
    directives = list(plan.directives)
    seen = {}
    for directive in directives:
        if directive.device_index >= len(fleet):
            raise PlanError(f"directive for device {directive.device_index} outside fleet")
        if directive.device_index in seen:
            raise CoverageError(f"device {directive.device_index} has multiple directives")
        seen[directive.device_index] = directive.transmission_index
    missing = set(range(len(fleet))) - set(seen)
    if missing and not partial:
        raise CoverageError(f"{len(missing)} devices uncovered")
    k = len(plan.transmissions)
    members: List[List[int]] = [[] for _ in range(k)]
    for directive in directives:
        if not 0 <= directive.transmission_index < k:
            raise PlanError(f"missing transmission {directive.transmission_index}")
        members[directive.transmission_index].append(directive.device_index)
    frames = plan.transmissions.frame.tolist()
    for index, (group, rate) in enumerate(
        zip(members, plan.transmissions.rate_bps.tolist())
    ):
        if not group:
            raise PlanError(f"transmission {index} serves no devices")
        if rate > fleet.group_rate_bps(group):
            raise PlanError(f"transmission {index}: bearer rate above its worst member's")
    for directive in directives:
        _validate_directive(plan, fleet, directive, frames[directive.transmission_index])


def _validate_directive(plan, fleet, directive, frame: int) -> None:
    device = fleet[directive.device_index]
    window_start = frame - plan.inactivity_timer_frames
    preferred = schedule_of(device)
    page = directive.page_frame
    in_window = window_start <= page <= frame
    method = directive.method
    if method is WakeMethod.IMMEDIATE_PAGE:
        if not preferred.is_po(page):
            raise PlanError("immediate page is not a PO")
    elif method is WakeMethod.PAGED_IN_WINDOW:
        if not preferred.is_po(page):
            raise PlanError("window page is not a PO")
        if not in_window:
            raise PlanError("page outside window")
    elif method is WakeMethod.EXTENDED_PAGE_TIMER:
        if not preferred.is_po(page):
            raise PlanError("extended page is not a PO")
        expiry = directive.t322.expires_at_frame
        if not window_start <= expiry <= frame:
            raise PlanError("T322 expiry outside window")
        if directive.connect_frame != expiry:
            raise PlanError("connect frame differs from T322 expiry")
    else:
        adaptation = directive.adaptation_page_frame
        cycle = directive.adapted_cycle
        if int(cycle) > int(device.cycle):
            raise PlanError("adapted cycle longer than preferred")
        if not preferred.is_po(adaptation):
            raise PlanError("adaptation page is not a preferred-cycle PO")
        if adaptation >= window_start:
            raise PlanError("adaptation not before the window start")
        adapted = schedule_of(device, cycle)
        if not adapted.is_po(page):
            raise PlanError("window page is not on the adapted grid")
        if not in_window:
            raise PlanError("adapted page outside window")
        if page <= adaptation:
            raise PlanError("adapted page not after the adaptation episode")


def count_overlaps_reference(
    frame: np.ndarray, duration_frames: np.ndarray
) -> int:
    """Overlapping pairs by definition: two half-open intervals overlap
    iff each starts before the other ends (quadratic)."""
    transmissions = list(zip(frame, np.add(frame, duration_frames)))
    overlaps = 0
    for i, (a_start, a_end) in enumerate(transmissions):
        for b_start, b_end in transmissions[i + 1 :]:
            if a_start < b_end and b_start < a_end:
                overlaps += 1
    return overlaps
