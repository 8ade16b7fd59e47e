"""Scalar TS 36.304 paging rule: the oracle of the ``v_*`` kernels.

``repro.drx.paging.v_paging_frame_offset`` / ``v_paging_subframe`` and
the ``repro.drx.schedule.v_*`` window queries are the package's only
paging-occasion rule. This module keeps the per-device formula they
were vectorised from, one UE_ID and one cycle at a time, and the
per-device :class:`PoSchedule` queries: the equivalence tests
(``tests/unit/test_fleet_arrays.py``, ``tests/unit/test_drx_schedule.py``,
``tests/properties/test_prop_ladder_paging.py``,
``tests/properties/test_prop_schedule.py``) and the scalar plan and
executor oracles (``tests/plan_oracle.py``, ``tests/executor_oracle.py``)
read devices' paging occasions through :func:`schedule_of` and
:func:`pattern_of`.

The rule, for regular cycles (up to one SFN period of 1024 frames)::

    PF:  SFN mod T = (T div N) * (UE_ID mod N)
    i_s = floor(UE_ID / N) mod Ns

with ``N = min(T, nB)``, ``Ns = max(1, nB / T)`` and
``UE_ID = IMSI mod 4096``. An eDRX cycle adds the paging hyperframe
``H-SFN mod T_eDRX,H = Hashed_ID mod T_eDRX,H`` and applies the regular
rule with ``T = 1024`` inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.drx.cycles import DrxCycle
from repro.drx.paging import HASHED_ID_SPACE, NB, UE_ID_SPACE
from repro.errors import PagingError
from repro.timebase import FRAMES_PER_HYPERFRAME

#: PO subframe patterns (FDD) indexed by Ns, per TS 36.304 Table 7.2-1.
_SUBFRAME_PATTERNS = {
    1: (9,),
    2: (4, 9),
    4: (0, 4, 5, 9),
}


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for possibly-negative numerators."""
    return -((-a) // b)


@dataclass(frozen=True)
class PoSchedule:
    """The arithmetic progression of a single device's paging occasions."""

    phase: int
    period: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise PagingError(f"period must be positive, got {self.period}")
        if not 0 <= self.phase < self.period:
            raise PagingError(
                f"phase {self.phase} outside [0, {self.period})"
            )

    def po_index_at_or_after(self, frame: int) -> int:
        """Index ``k`` of the first PO at or after ``frame`` (k >= 0)."""
        return max(0, _ceil_div(frame - self.phase, self.period))

    def first_at_or_after(self, frame: int) -> int:
        """Frame of the first PO at or after ``frame``."""
        return self.phase + self.po_index_at_or_after(frame) * self.period

    def last_before(self, frame: int) -> Optional[int]:
        """Frame of the last PO strictly before ``frame`` (None if none)."""
        k = (frame - 1 - self.phase) // self.period
        if k < 0:
            return None
        return self.phase + k * self.period

    def last_at_or_before(self, frame: int) -> Optional[int]:
        """Frame of the last PO at or before ``frame`` (None if none)."""
        return self.last_before(frame + 1)

    def is_po(self, frame: int) -> bool:
        """True if ``frame`` is one of this schedule's paging occasions."""
        return frame >= self.phase and (frame - self.phase) % self.period == 0

    def count_in(self, start: int, end: int) -> int:
        """Number of POs in the half-open interval ``[start, end)``."""
        if end <= start:
            return 0
        k_lo = self.po_index_at_or_after(start)
        k_hi = (end - 1 - self.phase) // self.period
        return max(0, k_hi - k_lo + 1)

    def has_in(self, start: int, end: int) -> bool:
        """True if at least one PO lies in ``[start, end)``."""
        return self.count_in(start, end) > 0

    def pos_in(self, start: int, end: int) -> np.ndarray:
        """All PO frames in ``[start, end)`` as an int64 array."""
        if end <= start:
            return np.empty(0, dtype=np.int64)
        first = self.first_at_or_after(start)
        if first >= end:
            return np.empty(0, dtype=np.int64)
        return np.arange(first, end, self.period, dtype=np.int64)

    def nth_after(self, frame: int, n: int) -> int:
        """Frame of the ``n``-th PO at or after ``frame`` (n=0 is the first)."""
        if n < 0:
            raise PagingError(f"n must be non-negative, got {n}")
        return self.first_at_or_after(frame) + n * self.period


def default_hashed_id(ue_id: int) -> int:
    """Deterministic 10-bit hash standing in for the S-TMSI Hashed_ID.

    TS 36.304 hashes the S-TMSI with a CRC; we use a Knuth
    multiplicative mix of the UE identity, which spreads the 4096 UE_ID
    values uniformly over the 1024 hashed values.
    """
    _validate_ue_id(ue_id)
    mixed = (ue_id * 2654435761) & 0xFFFFFFFF
    return (mixed >> 22) & (HASHED_ID_SPACE - 1)


def _n_and_ns(cycle_frames: int, nb: NB) -> Tuple[int, int]:
    """The (N, Ns) pair of TS 36.304 for cycle ``T`` and parameter ``nB``."""
    nb_value = nb.fraction * cycle_frames
    if nb_value.denominator != 1:
        raise PagingError(
            f"nB={nb.name} of cycle {cycle_frames} frames is not an integer"
        )
    nb_int = int(nb_value)
    n = min(cycle_frames, nb_int)
    ns = max(1, nb_int // cycle_frames)
    if n < 1:
        raise PagingError(f"nB={nb.name} yields N={n} < 1 for T={cycle_frames}")
    return n, ns


def _intra_hyperframe_cycle(cycle: DrxCycle) -> int:
    """The cycle applied at the PF level: min(T, one hyperframe)."""
    return min(int(cycle), FRAMES_PER_HYPERFRAME)


def paging_frame_offset(
    ue_id: int,
    cycle: DrxCycle,
    nb: NB = NB.ONE_T,
    hashed_id: Optional[int] = None,
) -> int:
    """Frame offset of the device's paging frames within each cycle.

    The device's paging frames are exactly the absolute frames ``f`` with
    ``f mod T == offset``. For eDRX cycles the offset combines the
    paging-hyperframe position (from the hashed identity) with the
    intra-hyperframe PF offset (from the UE identity).
    """
    _validate_ue_id(ue_id)
    pf_cycle = _intra_hyperframe_cycle(cycle)
    n, _ = _n_and_ns(pf_cycle, nb)
    pf_offset = (pf_cycle // n) * (ue_id % n)
    if int(cycle) <= FRAMES_PER_HYPERFRAME:
        return pf_offset
    if hashed_id is None:
        hashed_id = default_hashed_id(ue_id)
    _validate_hashed_id(hashed_id)
    cycle_hyperframes = int(cycle) // FRAMES_PER_HYPERFRAME
    ph_index = hashed_id % cycle_hyperframes
    return ph_index * FRAMES_PER_HYPERFRAME + pf_offset


def paging_subframe(ue_id: int, cycle: DrxCycle, nb: NB = NB.ONE_T) -> int:
    """Subframe (0-9) of the device's paging occasion within its PF."""
    _validate_ue_id(ue_id)
    pf_cycle = _intra_hyperframe_cycle(cycle)
    n, ns = _n_and_ns(pf_cycle, nb)
    if ns not in _SUBFRAME_PATTERNS:
        raise PagingError(f"unsupported Ns={ns} (nB={nb.name})")
    i_s = (ue_id // n) % ns
    return _SUBFRAME_PATTERNS[ns][i_s]


def _validate_ue_id(ue_id: int) -> None:
    if not 0 <= int(ue_id) < UE_ID_SPACE:
        raise PagingError(f"UE_ID must be in [0, {UE_ID_SPACE}), got {ue_id}")


def _validate_hashed_id(hashed_id: int) -> None:
    if not 0 <= int(hashed_id) < HASHED_ID_SPACE:
        raise PagingError(
            f"Hashed_ID must be in [0, {HASHED_ID_SPACE}), got {hashed_id}"
        )


@dataclass(frozen=True)
class PagingOccasionPattern:
    """A device's periodic paging-occasion pattern.

    Attributes:
        phase: frame offset of the first PO (``0 <= phase < cycle``).
        cycle: the DRX/eDRX cycle.
        subframe: PO subframe within the paging frame (0-9).
    """

    phase: int
    cycle: DrxCycle
    subframe: int

    def __post_init__(self) -> None:
        if not 0 <= self.phase < int(self.cycle):
            raise PagingError(
                f"phase {self.phase} outside [0, {int(self.cycle)}) for {self.cycle!r}"
            )
        if not 0 <= self.subframe <= 9:
            raise PagingError(f"subframe must be 0-9, got {self.subframe}")

    @property
    def schedule(self) -> PoSchedule:
        """The integer PO schedule (frame-granularity view of the pattern)."""
        return PoSchedule(phase=self.phase, period=int(self.cycle))


def pattern_for(
    ue_id: int,
    cycle: DrxCycle,
    nb: NB = NB.ONE_T,
    hashed_id: Optional[int] = None,
) -> PagingOccasionPattern:
    """Build the full paging pattern of a device from its identity."""
    return PagingOccasionPattern(
        phase=paging_frame_offset(ue_id, cycle, nb, hashed_id),
        cycle=cycle,
        subframe=paging_subframe(ue_id, cycle, nb),
    )


def pattern_of(device, cycle: Optional[DrxCycle] = None) -> PagingOccasionPattern:
    """The paging pattern of an ``NbIotDevice`` under ``cycle`` (its
    negotiated cycle when not given)."""
    return pattern_for(
        device.identity.ue_id, device.cycle if cycle is None else cycle, device.nb
    )


def schedule_of(device, cycle: Optional[DrxCycle] = None) -> PoSchedule:
    """The PO schedule of an ``NbIotDevice`` under ``cycle`` (its
    negotiated cycle when not given)."""
    return pattern_of(device, cycle).schedule
