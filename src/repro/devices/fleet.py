"""The fleet: one frozen struct-of-arrays, one row per device.

Grouping mechanisms address devices by fleet index (0..n-1). Every
column of a :class:`Fleet` is a contiguous, read-only NumPy array in a
**fixed schema**, so a 10^6-device fleet is ~90 MB of flat arrays
instead of a tuple of a million Python objects — and the whole table
can be mapped into :mod:`multiprocessing.shared_memory` byte-for-byte
(see :mod:`repro.devices.sharedmem`).

The planners and executors read the columns directly. Indexing a fleet
builds :class:`~repro.devices.device.NbIotDevice` *views* of its rows
on access and never caches them. A row stores exactly what a device
holds — its DRX configuration is the negotiated one (DA-SC's temporary
cycle lives in plans, not fleets) — so a view equals the device the row
was captured from.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.battery import Battery
from repro.devices.device import NbIotDevice
from repro.devices.identity import MAX_IMSI, DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.config import DrxConfig
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB, v_paging_frame_offset
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

_NB_BY_FRACTION: Dict[Fraction, NB] = {member.fraction: member for member in NB}

#: Sustained downlink rate per coverage code (``COVERAGE_ORDER`` order).
_RATE_BY_CODE = np.array(
    [PROFILES[coverage].downlink_bps for coverage in COVERAGE_ORDER],
    dtype=np.float64,
)

#: The fixed column schema: (field name, dtype). Every column is 8 bytes
#: per device, which is what makes the shared-memory layout a pure
#: function of the device count.
COLUMN_SCHEMA: Tuple[Tuple[str, np.dtype], ...] = (
    ("imsis", np.dtype(np.int64)),
    ("periods", np.dtype(np.int64)),
    ("phases", np.dtype(np.int64)),
    ("ue_ids", np.dtype(np.int64)),
    ("coverage_codes", np.dtype(np.int64)),
    ("category_codes", np.dtype(np.int64)),
    ("nb_numerators", np.dtype(np.int64)),
    ("nb_denominators", np.dtype(np.int64)),
    ("downlink_bps", np.dtype(np.float64)),
    ("battery_capacity_mah", np.dtype(np.float64)),
    ("battery_voltage_v", np.dtype(np.float64)),
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

    One row per device; battery columns hold NaN for devices without a
    battery. As a sequence, the rows read as
    :class:`~repro.devices.device.NbIotDevice` views built on access.
    Use :meth:`from_devices` / :meth:`from_columns` to construct; the
    raw constructor expects every column of the schema, equal-length
    and non-empty, and trusts the caller that the IMSIs are unique.
    """

    imsis: np.ndarray
    periods: np.ndarray
    phases: np.ndarray
    ue_ids: np.ndarray
    coverage_codes: np.ndarray
    category_codes: np.ndarray
    nb_numerators: np.ndarray
    nb_denominators: np.ndarray
    downlink_bps: np.ndarray
    battery_capacity_mah: np.ndarray
    battery_voltage_v: np.ndarray

    def __post_init__(self) -> None:
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

        Raises :class:`FleetError` when two devices share an IMSI.
        """
        devices = tuple(devices)
        if not devices:
            raise FleetError("a fleet must contain at least one device")
        nb_fractions = [d.drx.nb.fraction for d in devices]
        batteries = [d.battery for d in devices]
        fleet = cls(
            imsis=np.array([d.identity.imsi for d in devices], np.int64),
            periods=np.array([int(d.cycle) for d in devices], np.int64),
            phases=np.array([d.pattern.phase for d in devices], np.int64),
            ue_ids=np.array([d.drx.ue_id for d in devices], np.int64),
            coverage_codes=np.array(
                [COVERAGE_CODE[d.coverage] for d in devices], np.int64
            ),
            category_codes=np.array(
                [CATEGORY_CODE[d.category] for d in devices], np.int64
            ),
            nb_numerators=np.array([f.numerator for f in nb_fractions], np.int64),
            nb_denominators=np.array(
                [f.denominator for f in nb_fractions], np.int64
            ),
            downlink_bps=np.array(
                [PROFILES[d.coverage].downlink_bps for d in devices], np.float64
            ),
            battery_capacity_mah=np.array(
                [np.nan if b is None else b.capacity_mah for b in batteries],
                np.float64,
            ),
            battery_voltage_v=np.array(
                [np.nan if b is None else b.voltage_v for b in batteries],
                np.float64,
            ),
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
        battery: Optional[Battery] = None,
        out: Optional[Mapping[str, np.ndarray]] = None,
    ) -> "Fleet":
        """Build a fleet from its independent columns.

        The derived columns (paging identity, PO phase, ``nB``, downlink
        rate, battery) are computed vectorised — bit-identical to what
        per-device construction would produce — so no device object ever
        exists. ``nb`` and ``battery`` are fleet-wide (the generator's
        model). The IMSIs must be unique; the caller guarantees it (the
        generator samples them without replacement), so no scan runs.

        ``out`` supplies writable destination buffers for every schema
        column (e.g. the column views of a staged
        :class:`~repro.devices.sharedmem.SharedFleet` segment): the
        independent draws are copied in once and the derived columns
        are computed *directly into* the buffers, so the returned fleet
        is backed by ``out``'s memory and publishing it needs no second
        88 MB column-by-column copy.
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
        for frames in np.unique(drawn["periods"]).tolist():
            DrxCycle(frames)  # validates ladder membership
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
            # memory); every derived column lands in its buffer directly.
            for name, column in drawn.items():
                np.copyto(out[name], column)
        np.remainder(out["imsis"], 4096, out=out["ue_ids"])
        out["phases"][...] = v_paging_frame_offset(out["ue_ids"], out["periods"], nb)
        out["nb_numerators"][...] = nb.fraction.numerator
        out["nb_denominators"][...] = nb.fraction.denominator
        np.take(_RATE_BY_CODE, out["coverage_codes"], out=out["downlink_bps"])
        out["battery_capacity_mah"][...] = (
            np.nan if battery is None else battery.capacity_mah
        )
        out["battery_voltage_v"][...] = (
            np.nan if battery is None else battery.voltage_v
        )
        return cls(**{name: out[name] for name, _ in COLUMN_SCHEMA})

    @classmethod
    def concatenate(cls, parts: Sequence["Fleet"]) -> "Fleet":
        """Row-wise concatenation of several fleets.

        Raises :class:`FleetError` when two rows share an IMSI.
        """
        if not parts:
            raise FleetError("a fleet must contain at least one device")
        if len(parts) == 1:
            return parts[0]
        fleet = cls(
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name, _ in COLUMN_SCHEMA
            }
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
        capacity = float(self.battery_capacity_mah[row])
        nb = _NB_BY_FRACTION[
            Fraction(int(self.nb_numerators[row]), int(self.nb_denominators[row]))
        ]
        return NbIotDevice(
            identity=DeviceIdentity(int(self.imsis[row])),
            drx=DrxConfig(int(self.ue_ids[row]), DrxCycle(int(self.periods[row])), nb),
            coverage=COVERAGE_ORDER[int(self.coverage_codes[row])],
            category=CATEGORY_ORDER[int(self.category_codes[row])],
            battery=None
            if np.isnan(capacity)
            else Battery(capacity, float(self.battery_voltage_v[row])),
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

    @property
    def min_cycle(self) -> DrxCycle:
        """The shortest preferred cycle in the fleet."""
        return DrxCycle(int(self.periods.min()))

    def coverage_histogram(self) -> Dict[CoverageClass, int]:
        """Device count per coverage class (every class present as a key)."""
        counts = np.bincount(self.coverage_codes, minlength=len(COVERAGE_ORDER))
        return {
            coverage: int(counts[code])
            for code, coverage in enumerate(COVERAGE_ORDER)
        }

    def group_rate_bps(self, indices: Sequence[int]) -> float:
        """Multicast bearer rate for the device group ``indices``.

        The bearer serves the worst device in the group (paper Sec. II-A),
        so this is the minimum of the members' downlink rates.
        """
        if len(indices) == 0:
            raise FleetError("cannot size a bearer for an empty group")
        idx = self._validated_indices(indices)
        return float(self.downlink_bps[idx].min())

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
        return Fleet(**{name: column[idx] for name, column in self.columns()})

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

assert COLUMN_NAMES == tuple(
    f.name for f in fields(Fleet)
), "COLUMN_SCHEMA and Fleet fields diverged"
