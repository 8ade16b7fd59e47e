"""Multicast plans: the contract between mechanisms and the executor.

A :class:`MulticastPlan` is a complete, *checkable* description of a
multicast campaign: when each transmission happens, which devices it
serves at what bearer rate, and — per device — how the device is woken
(normal page in the window, DA-SC adaptation, DR-SI extended page, or
the unicast baseline's immediate page).

The canonical form of a plan's per-device directives is
:class:`PlanArrays`, a struct-of-arrays the mechanisms build straight
from the fleet's columns; :class:`DeviceDirective` objects are built
from it only on access (:attr:`MulticastPlan.directives`). The plan's
transmissions are a :class:`TransmissionTable` of frame, rate and
airtime columns; who each one serves is recorded only in the directive
``transmission`` column.

The paging records a plan issues — final pages, DA-SC adaptation pages
and DR-SI notifications — are one :class:`PageTable`
(:func:`plan_pages`), which the campaign report and the live arbiter
both read.

``MulticastPlan.validate`` re-derives every claim against the fleet's
actual paging schedules and bearer rates, as whole-array checks, and
raises :class:`~repro.errors.PlanError` on any inconsistency. Every
campaign path validates its plans, so executor results can trust plan
invariants.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle, v_on_ladder
from repro.drx.paging import (
    UE_ID_SPACE,
    v_paging_frame_offset,
    v_paging_subframe,
)
from repro.drx.schedule import v_first_at_or_after, v_last_at_or_before
from repro.errors import CoverageError, PlanError
from repro.rrc.timers import T322Timer
from repro.table import ColumnTable
from repro.timebase import frames_to_seconds


class WakeMethod(Enum):
    """How a device learns about / wakes up for its transmission."""

    PAGED_IN_WINDOW = "paged_in_window"
    """Paged at one of its own POs inside the transmission's TI-window
    (DR-SC; DA-SC/DR-SI devices that happen to have a window PO)."""

    DRX_ADAPTATION = "drx_adaptation"
    """DA-SC: paged at the last PO before the window, reconfigured to a
    shorter cycle, then paged again at the adapted PO inside the window."""

    EXTENDED_PAGE_TIMER = "extended_page_timer"
    """DR-SI: receives the ``mltc-transmission`` extension at a normal
    PO, arms T322, and self-wakes inside the window."""

    IMMEDIATE_PAGE = "immediate_page"
    """Unicast baseline: paged at its first PO and served immediately."""


@dataclass(frozen=True)
class DeviceDirective:
    """Per-device wake-up instructions: one row of a plan's columns.

    Attributes:
        device_index: fleet index of the device.
        transmission_index: which plan transmission serves it.
        method: the wake method (see :class:`WakeMethod`).
        page_frame: the PO at which the device hears its (final) page —
            or, for DR-SI extended pages, the PO carrying the extension.
        connect_frame: frame at which the device starts random access.
        adaptation_page_frame: DA-SC only — the PO (under the preferred
            cycle) where the device is paged for the reconfiguration;
            "the adaptation happens in the last PO before t - TI".
        adapted_cycle: DA-SC only — the temporary (shorter) cycle.
        t322: DR-SI only — the armed wake-up timer (armed at the page
            frame, expiring at the connect frame).

    A plain view: :class:`PlanArrays` builds one per row read and checks
    the rows itself.
    """

    device_index: int
    transmission_index: int
    method: WakeMethod
    page_frame: int
    connect_frame: int
    adaptation_page_frame: Optional[int] = None
    adapted_cycle: Optional[DrxCycle] = None
    t322: Optional[T322Timer] = None


#: Wake methods in the fixed order the ``method`` codes of
#: :class:`PlanArrays` index into (code ``i`` means ``METHOD_ORDER[i]``).
METHOD_ORDER: Tuple[WakeMethod, ...] = tuple(WakeMethod)

METHOD_CODE: Dict[WakeMethod, int] = {
    method: i for i, method in enumerate(METHOD_ORDER)
}

_ADAPTATION = METHOD_CODE[WakeMethod.DRX_ADAPTATION]
_EXTENDED = METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER]


def check_rows(
    mask: np.ndarray, message: str, error: type = PlanError, **columns: np.ndarray
) -> None:
    """Raise ``error`` for the first row where ``mask`` holds.

    ``message`` is formatted with that row's value of every keyword
    column (and ``row``, the row index itself).
    """
    if mask.any():
        r = int(np.argmax(mask))
        raise error(message.format(row=r, **{k: v[r] for k, v in columns.items()}))


def _on_grid(frames: np.ndarray, phases: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Per row: is ``frames`` a PO of the progression ``phase + k * period``?"""
    return (frames >= phases) & ((frames - phases) % periods == 0)


@dataclass(frozen=True, eq=False)
class PlanArrays(ColumnTable, SequenceABC):
    """A plan's directives as a frozen struct-of-arrays.

    One row per directive, every column int64, rows in the plan's
    directive order — groups in time order, members in member order.
    Random-access draws and event-log rows follow this order, so it is
    part of the contract. As a sequence, the rows read as
    :class:`DeviceDirective` objects built on access (never cached).

    Columns: ``device``, ``transmission`` (plan transmission index),
    ``method`` (an index into :data:`METHOD_ORDER`), ``page_frame``,
    ``connect_frame``, ``adaptation_page_frame`` (-1 unless DA-SC
    adapted the device) and ``adapted_cycle`` (in frames, 0 unless
    adapted); scalars broadcast to every row. A DR-SI device's T322 is
    armed at ``page_frame`` and expires at ``connect_frame``.
    Construction checks every row.
    """

    device: np.ndarray
    transmission: np.ndarray
    method: np.ndarray
    page_frame: np.ndarray
    connect_frame: np.ndarray
    adaptation_page_frame: np.ndarray = -1
    adapted_cycle: np.ndarray = 0

    def __post_init__(self) -> None:
        n = np.asarray(self.device).size
        for name in PLAN_COLUMNS:
            column = np.asarray(getattr(self, name), dtype=np.int64)
            if column.ndim == 0:
                column = np.full(n, column, dtype=np.int64)
            elif column.shape != (n,):
                raise PlanError(f"plan column {name!r} has shape {column.shape}")
            column = np.ascontiguousarray(column)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        method, page, connect = self.method, self.page_frame, self.connect_frame
        adaptation, cycle = self.adaptation_page_frame, self.adapted_cycle
        adapted = method == _ADAPTATION
        on_ladder = v_on_ladder(cycle)
        for mask, message in (
            ((method < 0) | (method >= len(METHOD_ORDER)), "unknown wake method"),
            (self.device < 0, "negative device index"),
            (page < 0, "negative page frame"),
            ((connect < page) & ~adapted, "connects before its page"),
            (adapted & ((adaptation < 0) | ~on_ladder), "adaptation fields missing"),
            (~adapted & ((adaptation != -1) | (cycle != 0)), "adaptation fields set"),
            ((method == _EXTENDED) & (connect <= page), "T322 expires before armed"),
        ):
            check_rows(mask, "device {d}: " + message, d=self.device)

    @classmethod
    def concatenate(cls, parts: Sequence["PlanArrays"]) -> "PlanArrays":
        """Row-wise concatenation of several plans' directives."""
        return cls(
            *(np.concatenate([getattr(p, n) for p in parts]) for n in PLAN_COLUMNS)
        )

    # ------------------------------------------------------------------
    # The directive-sequence view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.device.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        row = range(len(self))[index]
        device, tx, code, page, connect, adaptation, cycle = (
            int(getattr(self, name)[row]) for name in PLAN_COLUMNS
        )
        method = METHOD_ORDER[code]
        adapted = method is WakeMethod.DRX_ADAPTATION
        extended = method is WakeMethod.EXTENDED_PAGE_TIMER
        return DeviceDirective(
            device,
            tx,
            method,
            page,
            connect,
            adaptation if adapted else None,
            DrxCycle(cycle) if adapted else None,
            T322Timer(page, connect) if extended else None,
        )

    def __iter__(self) -> Iterator[DeviceDirective]:
        return (self[i] for i in range(len(self)))

    @cached_property
    def _first_rows(self) -> np.ndarray:
        """Device index -> its first row (-1 for devices without one)."""
        n = len(self)
        rows = np.full(int(self.device.max()) + 1 if n else 0, n, np.int64)
        np.minimum.at(rows, self.device, np.arange(n))
        rows[rows == n] = -1
        return rows

    def row_of(self, device_index: int) -> int:
        """The row directing ``device_index`` (-1 when there is none)."""
        rows = self._first_rows
        return int(rows[device_index]) if 0 <= device_index < rows.size else -1

    @cached_property
    def rows_by_transmission(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, bounds)``: transmission ``i``'s directive rows are
        ``rows[bounds[i]:bounds[i + 1]]``, in row order.

        One stable argsort of the ``transmission`` column serves every
        transmission; ``bounds`` covers indices up to the largest one in
        the column (rows with a negative index belong to none).
        """
        tx = self.transmission
        rows = np.argsort(tx, kind="stable")
        bounds = np.cumsum(np.bincount(np.maximum(tx, -1) + 1, minlength=1))
        return rows, bounds

    def transmission_rows(self, index: int) -> np.ndarray:
        """Directive rows of transmission ``index``, in row order."""
        rows, bounds = self.rows_by_transmission
        if not 0 <= index < bounds.size - 1:
            return rows[:0]
        return rows[bounds[index] : bounds[index + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanArrays(n={len(self)})"


#: The column schema of :class:`PlanArrays` (every column int64).
PLAN_COLUMNS: Tuple[str, ...] = tuple(f.name for f in fields(PlanArrays))


@dataclass(frozen=True, eq=False)
class TransmissionTable(ColumnTable, SequenceABC):
    """A plan's scheduled transmissions as a frozen column table.

    One row per transmission, ordered by frame; a row's position is its
    index. Columns: ``frame`` (int64 nominal start — the last frame of
    the TI-window for windowed mechanisms; the executor may start later
    so every member is connected), ``rate_bps`` (float64 bearer rate,
    the minimum over the group's capabilities) and ``duration_frames``
    (int64 payload airtime at that rate). Construction checks every row.

    The table stores no membership: transmission ``i`` serves the rows
    of ``directives`` whose ``transmission`` column holds ``i``. A
    :class:`MulticastPlan` binds its table to its own directives; read
    as a sequence, the rows are :class:`Transmission` objects built on
    access. Tables are equal when their columns are and each row serves
    the same devices in the same order (an unbound table equals only
    unbound ones).
    """

    frame: np.ndarray
    rate_bps: np.ndarray
    duration_frames: np.ndarray
    directives: Optional[PlanArrays] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        k = np.asarray(self.frame).size
        for name, dtype in (
            ("frame", np.int64),
            ("rate_bps", np.float64),
            ("duration_frames", np.int64),
        ):
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if column.shape != (k,):
                raise PlanError(f"column {name!r} has shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for mask, message in (
            (self.frame < 0, "frame must be >= 0, got {f}"),
            (self.rate_bps <= 0, "bearer rate must be positive, got {r}"),
            (self.duration_frames < 1, "duration must be >= 1 frame, got {d}"),
        ):
            check_rows(
                mask,
                "transmission {row}: " + message,
                f=self.frame,
                r=self.rate_bps,
                d=self.duration_frames,
            )

    def __eq__(self, other: object) -> bool:
        equal = super().__eq__(other)
        if equal is not True:
            return equal
        mine, theirs = self._members(), other._members()
        if mine is None or theirs is None:
            return mine is theirs
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def __hash__(self) -> int:
        members = self._members() or ()
        return hash((super().__hash__(), tuple(m.tobytes() for m in members)))

    def _members(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Who the rows serve, as ``(devices, group sizes)``: the bound
        directives' ``device`` column in transmission order (row order
        within a transmission). None when the table is unbound."""
        directives = self.directives
        if directives is None:
            return None
        rows, bounds = directives.rows_by_transmission
        return directives.device[rows[bounds[0] :]], np.diff(bounds)

    def _bound(self) -> PlanArrays:
        if self.directives is None:
            raise PlanError("transmission table is not bound to a plan")
        return self.directives

    def __len__(self) -> int:
        return self.frame.size

    def __getitem__(self, index) -> "Transmission":
        row = range(len(self))[index]
        return Transmission(
            row,
            int(self.frame[row]),
            float(self.rate_bps[row]),
            int(self.duration_frames[row]),
            self,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransmissionTable(k={len(self)})"


@dataclass(frozen=True)
class Transmission:
    """One scheduled multicast (or unicast) data transmission: a row of
    a :class:`TransmissionTable`, built on access.

    Attributes:
        index: the row — the transmission's position in its table.
        frame: nominal start frame.
        rate_bps: bearer rate (minimum over the group's capabilities).
        duration_frames: payload airtime at the bearer rate.
        table: the table the row was read from; ``device_indices`` and
            ``group_size`` are read from the directives it is bound to.
    """

    index: int
    frame: int
    rate_bps: float
    duration_frames: int
    table: TransmissionTable = field(repr=False, compare=False)

    @property
    def end_frame(self) -> int:
        """Nominal end frame (start + airtime)."""
        return self.frame + self.duration_frames

    @property
    def device_indices(self) -> np.ndarray:
        """Fleet indices served, in directive row order."""
        directives = self.table._bound()
        return directives.device[directives.transmission_rows(self.index)]

    @property
    def group_size(self) -> int:
        """Number of devices served."""
        return int(self.table._bound().transmission_rows(self.index).size)


@dataclass(frozen=True)
class MulticastPlan:
    """A complete multicast campaign plan.

    Attributes:
        mechanism: name of the producing mechanism.
        standards_compliant: True unless the plan needs protocol changes
            (DR-SI's extended page / new establishment cause).
        respects_preferred_drx: False only when cycles are temporarily
            modified (DA-SC).
        announce_frame: frame the multicast content became available.
        inactivity_timer_frames: the TI used for the windows.
        payload_bytes: multicast payload size.
        transmissions: scheduled transmissions, ordered by frame, as a
            :class:`TransmissionTable` (bound to ``directives``, which
            say who each transmission serves).
        directives: one directive per fleet device, as
            :class:`PlanArrays` columns.
        grouping: registry name of the grouping policy that formed the
            groups (None for policy-free baselines such as unicast).
    """

    mechanism: str
    standards_compliant: bool
    respects_preferred_drx: bool
    announce_frame: int
    inactivity_timer_frames: int
    payload_bytes: int
    transmissions: TransmissionTable
    directives: PlanArrays
    grouping: Optional[str] = None

    def __post_init__(self) -> None:
        columns = self.directives
        if not isinstance(columns, PlanArrays):
            raise PlanError(f"plan directives must be PlanArrays, got {type(columns)}")
        if self.transmissions.directives is not columns:
            table = replace(self.transmissions, directives=columns)
            object.__setattr__(self, "transmissions", table)

    @property
    def columns(self) -> PlanArrays:
        """The directive columns (the same object as :attr:`directives`)."""
        return self.directives

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def n_transmissions(self) -> int:
        """Number of data transmissions (the paper's bandwidth proxy)."""
        return len(self.transmissions)

    @property
    def campaign_end_frame(self) -> int:
        """Nominal end of the campaign (last transmission's end)."""
        table = self.transmissions
        return int((table.frame + table.duration_frames).max())

    @property
    def campaign_duration_s(self) -> float:
        """Nominal campaign duration in seconds, from the announce frame."""
        return frames_to_seconds(self.campaign_end_frame - self.announce_frame)

    def directive_for(self, device_index: int) -> DeviceDirective:
        """The directive addressing ``device_index``."""
        row = self.columns.row_of(device_index)
        if row < 0:
            raise PlanError(f"no directive for device {device_index}")
        return self.columns[row]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, fleet: Fleet, *, partial: bool = False) -> None:
        """Check the plan against the fleet's actual paging schedules.

        Raises :class:`~repro.errors.PlanError` (or its subclass
        :class:`~repro.errors.CoverageError`) on the first violated
        check. Every check is a whole-array expression over the plan
        columns and the fleet's columns.

        ``partial=True`` relaxes only the completeness requirement —
        fleet devices without a directive are allowed. Revised in-flight
        plans are validated this way: the working fleet of a live
        campaign keeps the devices that left (indices are append-only),
        so full coverage is impossible by construction. Every other
        invariant (no duplicate directives, every directive naming a
        transmission and every transmission serving someone, bearer
        rates, per-directive paging feasibility) still holds.
        """
        columns = self.columns
        dev, tx = columns.device, columns.transmission
        n_fleet = len(fleet)
        check_rows(dev >= n_fleet, f"device {{d}} outside fleet of {n_fleet}", d=dev)
        counts = np.bincount(dev, minlength=n_fleet)
        check_rows(counts > 1, "device {row} has multiple directives", CoverageError)
        missing = np.flatnonzero(counts == 0)
        if missing.size and not partial:
            raise CoverageError(
                f"{missing.size} devices uncovered, e.g. {missing[:5].tolist()}"
            )

        # Every directive names a transmission, and every transmission
        # serves someone.
        table = self.transmissions
        k = len(table)
        check_rows((tx < 0) | (tx >= k), "device {d}: no transmission {t}", d=dev, t=tx)
        check_rows(
            np.bincount(tx, minlength=k) == 0, "transmission {row} serves no devices"
        )
        if k:
            # The bearer serves the slowest member (paper Sec. II-A). A
            # frozen revised window keeps the rate it was sized for when
            # it had more members, hence <= rather than ==.
            rows, bounds = columns.rows_by_transmission
            slowest = np.minimum.reduceat(
                fleet.downlink_bps(dev[rows]), bounds[:-1]
            )
            check_rows(
                table.rate_bps > slowest,
                "transmission {row}: bearer rate exceeds its slowest member's {r} bps",
                r=slowest,
            )

        # Per-directive paging feasibility, one array check per rule.
        method, page = columns.method, columns.page_frame
        connect = columns.connect_frame
        # A device paged (or self-waking) at frame p can still be awake at
        # the transmission frame F iff F - p <= TI. Both window
        # conventions in the paper (DR-SC's [s, s+TI) with the
        # transmission at s+TI-1, and DA-SC/DR-SI's [t - TI, t) with the
        # transmission at t) satisfy this single invariant.
        frame = table.frame[tx]
        start = frame - self.inactivity_timer_frames
        phase, period = fleet.phases[dev], fleet.periods[dev]
        adaptation = columns.adaptation_page_frame
        adapted, extended = method == _ADAPTATION, method == _EXTENDED
        # Adapted rows page on their temporary grid, derived from the
        # identity like any grid; every other row on its preferred one.
        cycle = np.where(adapted, columns.adapted_cycle, period)
        grid = phase if not adapted.any() else v_paging_frame_offset(
            fleet.imsis[dev] % UE_ID_SPACE, cycle, fleet.nb
        )
        in_window = (start <= page) & (page <= frame)
        windowed = adapted | (method == METHOD_CODE[WakeMethod.PAGED_IN_WINDOW])
        expiry_inside = (start <= connect) & (connect <= frame)
        adaptation_po = _on_grid(adaptation, phase, period)
        for mask, message in (
            (~adapted & ~_on_grid(page, phase, period), "page at {p} is not a PO"),
            (windowed & ~in_window, "page at {p} outside window [{s}, {f}]"),
            (extended & (page >= frame), "notified at {p}, not before its tx at {f}"),
            (extended & ~expiry_inside, "T322 expiry {c} outside window [{s}, {f}]"),
            (cycle > period, "adapted cycle longer than the preferred one"),
            (adapted & ~adaptation_po, "adaptation page at {a} is not a PO"),
            (adapted & (adaptation >= start), "adaptation at {a} not before {s}"),
            (adapted & ~_on_grid(page, grid, cycle), "page {p} off the adapted grid"),
            (adapted & (page <= adaptation), "page not after the adaptation at {a}"),
        ):
            check_rows(
                mask,
                "device {d}: " + message,
                d=dev,
                p=page,
                c=connect,
                s=start,
                f=frame,
                a=adaptation,
            )


# ----------------------------------------------------------------------
# Paging: the records a plan issues
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PageTable:
    """Every paging record a plan issues, one row per record, in
    directive order: each directive's page at ``page_frame``, then a
    DA-SC adaptation's adaptation page. Columns: ``row`` (the directive
    row), ``device``, ``frame``, ``subframe`` (of the device's PO) and
    ``notified`` (bool: a DR-SI ``mltc-transmission`` entry rather than
    a paging record)."""

    row: np.ndarray
    device: np.ndarray
    frame: np.ndarray
    subframe: np.ndarray
    notified: np.ndarray


def plan_pages(fleet: Fleet, plan: MulticastPlan) -> PageTable:
    """The paging records ``plan`` issues to ``fleet``, as one table.

    The one place that knows how directives become paging records: the
    campaign report's paging fold and the live arbiter's per-window
    admission both read it.
    """
    columns = plan.columns
    row = np.repeat(np.arange(len(columns)), 1 + (columns.method == _ADAPTATION))
    frame = columns.page_frame[row]
    adaptation = np.flatnonzero(row[1:] == row[:-1]) + 1
    frame[adaptation] = columns.adaptation_page_frame[row[adaptation]]
    device = columns.device[row]
    subframe = v_paging_subframe(
        fleet.imsis[device] % UE_ID_SPACE, fleet.periods[device], fleet.nb
    )
    notified = columns.method[row] == _EXTENDED
    return PageTable(row, device, frame, subframe, notified)


# ----------------------------------------------------------------------
# Plan revision: diffing an in-flight plan against fleet churn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanRevision:
    """An in-flight plan's revised successor and what changed.

    A revision is computed by :func:`revise_plan` when devices join or
    leave a live campaign. Base windows missing from
    ``transmission_map`` were retired (every member left); the joiners
    are the revised plan's last directive rows, in join order.

    Attributes:
        base: the in-flight plan the revision was computed against.
        revised: the complete successor plan (working-fleet indices).
        now_frame: the frame at which the revision took effect; windows
            at or before it are frozen (already transmitted) and are
            never moved or resized.
        transmission_map: (base index, revised index) pairs for every
            surviving transmission.
        new_transmissions: revised indices with no base ancestor (built
            for joiners no existing window could serve).
    """

    base: MulticastPlan
    revised: MulticastPlan
    now_frame: int
    transmission_map: Tuple[Tuple[int, int], ...]
    new_transmissions: Tuple[int, ...] = ()


class _WindowDraft:
    """Mutable scratch for one transmission while a revision is built:
    its base index (None for a new window), shape and the joiners it
    gained, in join order."""

    __slots__ = ("base_index", "frame", "rate_bps", "duration", "order", "joiners")

    def __init__(self, base_index, frame, rate_bps, duration, order):
        self.base_index = base_index
        self.frame = frame
        self.rate_bps = rate_bps
        self.duration = duration
        self.order = order
        self.joiners: List[int] = []


def revise_plan(
    base: MulticastPlan,
    fleet: Fleet,
    *,
    joined: Tuple[int, ...] = (),
    left: Tuple[int, ...] = (),
    now_frame: int,
    context,
) -> PlanRevision:
    """Diff ``base`` against fleet churn and build its successor plan.

    ``fleet`` is the campaign's *working* fleet: the submit-time fleet
    with every joiner appended (indices are append-only, so directives
    in ``base`` remain valid references). ``joined``/``left`` are
    working-fleet indices taking effect at ``now_frame``.

    Semantics:

    * windows whose transmission frame is at or before ``now_frame`` are
      frozen — leaves drop the member from the accounting, but the
      window keeps its realised rate and duration;
    * pending windows losing members are resized (bearer rate re-derived
      from the surviving membership, paper Sec. II-A) and retired when
      every member left;
    * each joined device is re-paged into the *nearest feasible* pending
      window — the earliest one containing a PO of the device that is
      still in the future and leaves its connect slack — or, when no
      window can serve it, a fresh single-member window anchored at its
      next PO;
    * surviving transmissions are renumbered in time order;
    * surviving directives keep their rows, and the joiners' rows follow
      them in join order.

    The revised plan is validated (``partial=True``: devices that left
    stay in the working fleet without directives) before returning.

    Raises :class:`PlanError` on contradictory churn — joining a device
    that already has a directive, or removing one that has none.
    """
    from repro.phy.airtime import payload_airtime_frames

    ti = base.inactivity_timer_frames
    left_set = {int(i) for i in left}
    joined_list = [int(i) for i in joined]
    columns = base.columns
    for device_index in joined_list:
        if columns.row_of(device_index) >= 0:
            raise PlanError(
                f"device {device_index} already has a directive; it cannot "
                "join the campaign again"
            )
        if device_index >= len(fleet):
            raise PlanError(
                f"joining device {device_index} outside working fleet of "
                f"{len(fleet)}"
            )
    for device_index in left_set:
        if columns.row_of(device_index) < 0:
            raise PlanError(
                f"device {device_index} has no directive; it cannot leave"
            )

    # Surviving windows: frozen windows keep their realised shape,
    # pending ones are resized once the final membership is known.
    table = base.transmissions
    k = len(table)
    leaving = np.isin(columns.device, sorted(left_set))
    remaining = np.bincount(columns.transmission[~leaving], minlength=k)
    lost_members = np.bincount(columns.transmission[leaving], minlength=k) > 0
    drafts = [
        _WindowDraft(
            base_index=index,
            frame=int(table.frame[index]),
            rate_bps=float(table.rate_bps[index]),
            duration=int(table.duration_frames[index]),
            order=index,
        )
        for index in np.flatnonzero(remaining).tolist()
    ]

    # Re-page each joiner into the nearest feasible pending window.
    joined_pages: List[Tuple[_WindowDraft, int]] = []
    next_order = k
    slack_of = context.connect_slack_table()
    for device_index in joined_list:
        phase = fleet.phases[device_index]
        period = fleet.periods[device_index]
        slack = int(slack_of[fleet.coverage_codes[device_index]])
        # The pending windows in (frame, order) order; each joiner takes
        # the first one holding a PO it can be paged at: strictly after
        # ``now_frame`` (a revision cannot page in the past) and inside
        # ``[frame - TI, frame]``, the latest such PO that leaves the
        # connect slack preferred, else the latest one at all.
        pending = sorted(
            (d for d in drafts if d.frame > now_frame),
            key=lambda d: (d.frame, d.order),
        )
        frames = np.array([d.frame for d in pending], dtype=np.int64)
        # POs are never negative, so a floor of 0 also rejects the -1
        # the queries return for "no PO at or before the bound".
        lo = np.maximum(frames - ti, max(now_frame + 1, 0))
        page = v_last_at_or_before(phase, period, frames - slack)
        fallback = v_last_at_or_before(phase, period, frames)
        page = np.where(page >= lo, page, fallback)
        fits = np.flatnonzero(page >= lo)
        if fits.size:
            placed = (pending[fits[0]], int(page[fits[0]]))
        else:
            # No pending window can serve the joiner: open a fresh one
            # at its next PO, leaving the connect slack (capped by the
            # TI so the page stays inside the window).
            page = int(v_first_at_or_after(phase, period, now_frame + 1))
            draft = _WindowDraft(
                base_index=None,
                frame=page + min(max(slack, 1), ti),
                rate_bps=0.0,  # sized below with every other pending window
                duration=1,
                order=next_order,
            )
            next_order += 1
            drafts.append(draft)
            placed = (draft, page)
        placed[0].joiners.append(device_index)
        joined_pages.append(placed)

    # Size pending windows whose membership changed (frozen windows and
    # untouched pending windows keep their exact rate and duration).
    for draft in drafts:
        members = np.array(draft.joiners, dtype=np.int64)
        if draft.base_index is not None:
            if not (lost_members[draft.base_index] or draft.joiners):
                continue
            if draft.frame <= now_frame:
                continue
            rows = columns.transmission_rows(draft.base_index)
            members = np.concatenate([columns.device[rows[~leaving[rows]]], members])
        draft.rate_bps = fleet.group_rate_bps(members)
        draft.duration = payload_airtime_frames(base.payload_bytes, draft.rate_bps)

    # Renumber in time order (stable on the pre-revision order).
    drafts.sort(key=lambda d: (d.frame, d.order))
    index_of_draft = {id(draft): i for i, draft in enumerate(drafts)}
    transmission_map = [
        (draft.base_index, i)
        for i, draft in enumerate(drafts)
        if draft.base_index is not None
    ]
    new_indices = [i for i, draft in enumerate(drafts) if draft.base_index is None]

    # Surviving directives keep their rows; only the transmission
    # column is renumbered. Joiners are appended after them, in join
    # order, each paged in its window and connecting at its page.
    remap = np.full(k, -1, dtype=np.int64)
    for base_index, new_index in transmission_map:
        remap[base_index] = new_index
    kept = {name: getattr(columns, name)[~leaving] for name in PLAN_COLUMNS}
    kept["transmission"] = remap[kept["transmission"]]
    directives = PlanArrays(**kept)
    if joined_pages:
        pages = [page for _, page in joined_pages]
        joiners = PlanArrays(
            device=joined_list,
            transmission=[index_of_draft[id(draft)] for draft, _ in joined_pages],
            method=METHOD_CODE[WakeMethod.PAGED_IN_WINDOW],
            page_frame=pages,
            connect_frame=pages,
        )
        directives = PlanArrays.concatenate([directives, joiners])
    transmissions = TransmissionTable(
        frame=[draft.frame for draft in drafts],
        rate_bps=[draft.rate_bps for draft in drafts],
        duration_frames=[draft.duration for draft in drafts],
        directives=directives,
    )

    revised = MulticastPlan(
        mechanism=base.mechanism,
        standards_compliant=base.standards_compliant,
        respects_preferred_drx=base.respects_preferred_drx,
        announce_frame=base.announce_frame,
        inactivity_timer_frames=ti,
        payload_bytes=base.payload_bytes,
        transmissions=transmissions,
        directives=directives,
        grouping=base.grouping,
    )
    revised.validate(fleet, partial=True)
    return PlanRevision(
        base=base,
        revised=revised,
        now_frame=now_frame,
        transmission_map=tuple(transmission_map),
        new_transmissions=tuple(new_indices),
    )
