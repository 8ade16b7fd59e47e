"""The fleet: one frozen struct-of-arrays, one row per device.

Grouping mechanisms address devices by fleet index (0..n-1). A
:class:`Fleet` stores what was drawn: five contiguous, read-only int64
columns in a **fixed schema** (40 bytes per device, ~38 MiB at 10^6)
and the cell's ``nB``, one scalar per fleet (TS 36.304 broadcasts it in
system information). The whole table maps into
:mod:`multiprocessing.shared_memory` byte-for-byte (see
:mod:`repro.devices.sharedmem`). What the table can work out is not
stored: readers compute UE_IDs as ``imsis[rows] % 4096`` for their own
rows, and :meth:`Fleet.downlink_bps` looks bearer rates up by coverage
class. ``phases`` is stored because the cover reads it on every run.

The planners and executors read the columns directly. Indexing a fleet
builds :class:`~repro.devices.device.NbIotDevice` *views* of its rows
on access and never caches them; a view's cycle is the negotiated one
(DA-SC's temporary cycle lives in plans, not fleets), its ``nb`` the
fleet's and its battery ``None``. Every construction path derives the
phases with the one paging kernel,
:func:`~repro.drx.paging.v_paging_frame_offset`, inside
:meth:`Fleet.from_columns`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.device import NbIotDevice
from repro.devices.identity import MAX_IMSI, DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle, v_on_ladder
from repro.drx.paging import NB, UE_ID_SPACE, v_paging_frame_offset
from repro.errors import FleetError
from repro.phy.coverage import PROFILES, CoverageClass
from repro.table import ColumnTable

#: Coverage classes in the fixed order :attr:`Fleet.coverage_codes`
#: indexes into (code ``i`` means ``COVERAGE_ORDER[i]``).
COVERAGE_ORDER: Tuple[CoverageClass, ...] = tuple(CoverageClass)

COVERAGE_CODE: Dict[CoverageClass, int] = {
    coverage: i for i, coverage in enumerate(COVERAGE_ORDER)
}

#: Device categories in the fixed order ``category_codes`` indexes into.
CATEGORY_ORDER: Tuple[DeviceCategory, ...] = tuple(DeviceCategory)

CATEGORY_CODE: Dict[DeviceCategory, int] = {
    category: i for i, category in enumerate(CATEGORY_ORDER)
}

#: Sustained downlink rate per coverage code (``COVERAGE_ORDER`` order).
_RATE_BY_CODE = np.array(
    [PROFILES[coverage].downlink_bps for coverage in COVERAGE_ORDER],
    dtype=np.float64,
)

#: The fixed column schema: (field name, dtype), the stored columns only.
#: Every column is 8 bytes per device, which is what makes the
#: shared-memory layout a pure function of the device count.
COLUMN_SCHEMA: Tuple[Tuple[str, np.dtype], ...] = (
    ("imsis", np.dtype(np.int64)),
    ("periods", np.dtype(np.int64)),
    ("phases", np.dtype(np.int64)),
    ("coverage_codes", np.dtype(np.int64)),
    ("category_codes", np.dtype(np.int64)),
)

#: Bytes per device across all columns (8 bytes per column).
BYTES_PER_DEVICE = 8 * len(COLUMN_SCHEMA)


def fleet_nbytes(n_devices: int) -> int:
    """Canonical single-copy footprint of an ``n_devices`` fleet."""
    return int(n_devices) * BYTES_PER_DEVICE


def _repeats(values: np.ndarray) -> bool:
    """Whether any value occurs twice in ``values``.

    A sort and a neighbour compare: on 10^6 distinct int64 values
    ``np.unique`` (NumPy 2.4) measured ~60x slower than ``np.sort``.
    """
    ordered = np.sort(values)
    return bool((ordered[1:] == ordered[:-1]).any())


def _frozen(column: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Coerce ``column`` to a read-only contiguous array of ``dtype``.

    Arrays that already match (e.g. views over a shared-memory buffer)
    are passed through without copying — that pass-through is what keeps
    attached fleets zero-copy.
    """
    out = np.ascontiguousarray(column, dtype=dtype)
    if out.ndim != 1:
        raise FleetError(f"fleet columns must be 1-D, got shape {out.shape}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Fleet(ColumnTable, SequenceABC):
    """An ordered, immutable fleet as a frozen struct-of-arrays.

    One row per device, plus the cell's ``nb`` for the whole fleet. As
    a sequence, the rows read as
    :class:`~repro.devices.device.NbIotDevice` views built on access.
    Use :meth:`from_devices` / :meth:`from_columns` to construct; the
    raw constructor expects every column of the schema, equal-length
    and non-empty, and ``nb``, and trusts the caller that the IMSIs are
    unique and the phases derived.
    """

    imsis: np.ndarray
    periods: np.ndarray
    phases: np.ndarray
    coverage_codes: np.ndarray
    category_codes: np.ndarray
    nb: NB

    def __post_init__(self) -> None:
        if not isinstance(self.nb, NB):
            raise FleetError(f"a fleet's nb must be an NB, got {self.nb!r}")
        n = None
        for name, dtype in COLUMN_SCHEMA:
            column = _frozen(getattr(self, name), dtype)
            object.__setattr__(self, name, column)
            if n is None:
                n = column.size
            elif column.size != n:
                raise FleetError(
                    f"fleet column {name!r} has {column.size} rows, "
                    f"expected {n}"
                )
        if not n:
            raise FleetError("a fleet must contain at least one device")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_devices(cls, devices: Sequence[NbIotDevice]) -> "Fleet":
        """Capture the columns of a sequence of device objects.

        The devices come from outside the program (the live service's
        joins), so the capture checks what :meth:`from_columns` leaves
        to its caller. Raises :class:`FleetError` when two devices share
        an IMSI or when the devices carry more than one ``nB`` (a cell
        parameter, one per fleet). Batteries are not captured: the row
        views have ``battery=None``.
        """
        devices = tuple(devices)
        if not devices:
            raise FleetError("a fleet must contain at least one device")
        nbs = {d.nb for d in devices}
        if len(nbs) > 1:
            raise FleetError(
                "a fleet's devices share one nB, got "
                + ", ".join(sorted(nb.name for nb in nbs))
            )
        fleet = cls.from_columns(
            imsis=np.array([d.identity.imsi for d in devices], np.int64),
            periods=np.array([int(d.cycle) for d in devices], np.int64),
            coverage_codes=np.array(
                [COVERAGE_CODE[d.coverage] for d in devices], np.int64
            ),
            category_codes=np.array(
                [CATEGORY_CODE[d.category] for d in devices], np.int64
            ),
            nb=nbs.pop(),
        )
        fleet._check_unique_imsis()
        return fleet

    @classmethod
    def from_columns(
        cls,
        *,
        imsis: np.ndarray,
        periods: np.ndarray,
        coverage_codes: np.ndarray,
        category_codes: np.ndarray,
        nb: NB = NB.ONE_T,
        out: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "Fleet":
        """Build a fleet from its drawn columns and the cell's ``nb``.

        The PO phases are computed by the paging kernel over the whole
        column, so no device object ever exists. Raises
        :class:`~repro.errors.LadderError` for a period off the cycle
        ladder (one pass, no sort). The IMSIs must be unique; the caller
        guarantees it (the generator samples them without replacement),
        so no scan runs.

        ``out`` supplies writable destination buffers for every schema
        column (e.g. the column views of a staged
        :class:`~repro.devices.sharedmem.SharedFleet` segment): the
        draws are copied in once and the phases are computed *directly
        into* their buffer, so the returned fleet is backed by ``out``'s
        memory and publishing it needs no second column-by-column copy.
        """
        drawn = {
            name: np.ascontiguousarray(column, np.int64)
            for name, column in (
                ("imsis", imsis),
                ("periods", periods),
                ("coverage_codes", coverage_codes),
                ("category_codes", category_codes),
            )
        }
        n = drawn["imsis"].size
        if not n:
            raise FleetError("a fleet must contain at least one device")
        if drawn["imsis"].min() <= 0 or drawn["imsis"].max() > MAX_IMSI:
            raise FleetError("IMSIs must be positive 15-digit integers")
        for name, order, what in (
            ("coverage_codes", COVERAGE_ORDER, "coverage"),
            ("category_codes", CATEGORY_ORDER, "category"),
        ):
            codes = drawn[name]
            if codes.min() < 0 or codes.max() >= len(order):
                raise FleetError(f"{what} code out of range")
        off_ladder = ~v_on_ladder(drawn["periods"])
        if off_ladder.any():
            DrxCycle(drawn["periods"][off_ladder.argmax()])  # raises LadderError
        if out is None:
            # Drawn columns pass through; derived ones get fresh buffers.
            out = {
                name: drawn[name] if name in drawn else np.empty(n, dtype)
                for name, dtype in COLUMN_SCHEMA
            }
        else:
            for name, dtype in COLUMN_SCHEMA:
                dest = out.get(name)
                if (
                    dest is None
                    or dest.shape != (n,)
                    or dest.dtype != dtype
                    or not dest.flags.writeable
                ):
                    raise FleetError(
                        f"destination buffer {name!r} must be a writable "
                        f"({n},) array of {dtype}"
                    )
            # Drawn columns pay one copy each (the generator owns their
            # memory); the phases land in their buffer directly.
            for name, column in drawn.items():
                np.copyto(out[name], column)
        # The UE_IDs are worked out in the phase buffer and overwritten
        # there by the phases, so they never take memory of their own.
        phases = np.remainder(out["imsis"], UE_ID_SPACE, out=out["phases"])
        v_paging_frame_offset(phases, out["periods"], nb, out=phases)
        return cls(**{name: out[name] for name, _ in COLUMN_SCHEMA}, nb=nb)

    @classmethod
    def concatenate(cls, parts: Sequence["Fleet"]) -> "Fleet":
        """Row-wise concatenation of several fleets.

        Raises :class:`FleetError` when two rows share an IMSI or the
        parts disagree on ``nB``.
        """
        if not parts:
            raise FleetError("a fleet must contain at least one device")
        if len(parts) == 1:
            return parts[0]
        nbs = {part.nb for part in parts}
        if len(nbs) > 1:
            raise FleetError(
                "cannot concatenate fleets of different nB: "
                + ", ".join(sorted(nb.name for nb in nbs))
            )
        fleet = cls(
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name, _ in COLUMN_SCHEMA
            },
            nb=nbs.pop(),
        )
        fleet._check_unique_imsis()
        return fleet

    def _check_unique_imsis(self) -> None:
        if _repeats(self.imsis):
            raise FleetError("fleet contains duplicate IMSIs")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.imsis.size

    @property
    def nbytes(self) -> int:
        """Total bytes across all columns (the single-copy footprint)."""
        return fleet_nbytes(len(self))

    def columns(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(name, column)`` pairs in schema order."""
        for name, _ in COLUMN_SCHEMA:
            yield name, getattr(self, name)

    # ------------------------------------------------------------------
    # The device-sequence view
    # ------------------------------------------------------------------
    def __getitem__(self, index):
        """The device view of row ``index`` (a tuple of views for a slice).

        Building a view is O(1) and independent of the fleet size, which
        is what lets a million-device fleet serve ``fleet[i]`` without
        ever holding a million objects.
        """
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        row = range(len(self))[index]
        return NbIotDevice(
            identity=DeviceIdentity(int(self.imsis[row])),
            cycle=DrxCycle(int(self.periods[row])),
            nb=self.nb,
            coverage=COVERAGE_ORDER[int(self.coverage_codes[row])],
            category=CATEGORY_ORDER[int(self.category_codes[row])],
        )

    def __iter__(self) -> Iterator[NbIotDevice]:
        return (self[i] for i in range(len(self)))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def max_cycle(self) -> DrxCycle:
        """The longest preferred cycle in the fleet (the paper's maxDRX)."""
        return DrxCycle(int(self.periods.max()))

    def coverage_histogram(self) -> Dict[CoverageClass, int]:
        """Device count per coverage class (every class present as a key)."""
        counts = np.bincount(self.coverage_codes, minlength=len(COVERAGE_ORDER))
        return {
            coverage: int(counts[code])
            for code, coverage in enumerate(COVERAGE_ORDER)
        }

    def downlink_bps(self, rows: np.ndarray) -> np.ndarray:
        """The sustained downlink rate of the devices at ``rows``, set by
        their coverage class (float64, one value per row)."""
        return _RATE_BY_CODE[self.coverage_codes[rows]]

    def group_rate_bps(self, indices: Sequence[int]) -> float:
        """Multicast bearer rate for the device group ``indices``.

        The bearer serves the worst device in the group (paper Sec. II-A),
        so this is the minimum of the members' downlink rates.
        """
        if len(indices) == 0:
            raise FleetError("cannot size a bearer for an empty group")
        idx = self._validated_indices(indices)
        return float(self.downlink_bps(idx).min())

    def subset(self, indices: Sequence[int]) -> "Fleet":
        """A new fleet of the rows at ``indices``, in that order.

        One fancy-indexing operation per column — the multi-cell
        partitioner and the shared-memory cell slice call it per cell,
        never a per-device rebuild. Raises :class:`FleetError` for an
        empty selection, an index outside ``[0, len(self))`` or a
        repeated index (a repeated row would repeat its IMSI).
        """
        idx = self._validated_indices(indices)
        if idx.size == 0:
            raise FleetError("a fleet must contain at least one device")
        if _repeats(idx):
            raise FleetError("fleet contains duplicate IMSIs")
        return Fleet(
            **{name: column[idx] for name, column in self.columns()}, nb=self.nb
        )

    def _validated_indices(self, indices: Sequence[int]) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise FleetError(
                f"device index out of range [0, {len(self)}): {indices!r}"
            )
        return idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cycles = [DrxCycle(p).seconds for p in np.unique(self.periods).tolist()]
        return f"Fleet(n={len(self)}, cycles={cycles})"


#: All schema field names (kept in sync with the dataclass by tests).
COLUMN_NAMES: Tuple[str, ...] = tuple(name for name, _ in COLUMN_SCHEMA)

assert COLUMN_NAMES + ("nb",) == tuple(
    f.name for f in fields(Fleet)
), "COLUMN_SCHEMA and Fleet fields diverged"
