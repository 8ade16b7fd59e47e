"""TS 36.304-style paging frame / paging occasion computation.

In idle mode a device only listens at its paging occasions. For regular
DRX cycles (up to one SFN period = 1024 frames) 3GPP TS 36.304 derives
the *paging frame* (PF) and *paging occasion* (PO, a subframe within the
PF) from the UE identity and the paging cycle ``T``::

    PF:  SFN mod T = (T div N) * (UE_ID mod N)
    i_s = floor(UE_ID / N) mod Ns

with ``N = min(T, nB)`` and ``Ns = max(1, nB / T)``, where ``nB`` is a
cell-wide parameter expressed as a multiple of ``T`` (4T ... T/32) and
``UE_ID = IMSI mod 4096`` for NB-IoT.

For **eDRX** cycles (2 .. 1024 hyperframes, i.e. 20.48 s .. 175 min) the
cycle exceeds the SFN period, so Rel-13 adds a second level: the device
first computes its *paging hyperframe* (PH) from a hashed identity::

    PH:  H-SFN mod T_eDRX,H = (Hashed_ID mod T_eDRX,H)

and then applies the regular PF/PO rule (with ``T = 1024``) inside that
hyperframe. This two-level structure is what spreads eDRX devices over
the whole cycle — modelling it matters: using the one-level formula
would artificially synchronise every eDRX device into the first
``UE_ID_SPACE`` frames of each cycle and wildly overstate how well
DR-SC can group devices.

We keep both levels but collapse the paging *time window* (PTW) to its
first PO, matching the paper's model of "the device checks one PO per
cycle".

A key algebraic property used by DA-SC holds in this model (and is
enforced by property tests): for a fixed ``nB``, the PO grid for cycle
``T`` is a **subset** of the grid for any shorter ladder cycle ``T'``.
Shortening a device's cycle only *adds* wake-ups and never moves
existing ones, so the eNB can restore the original cycle after the
multicast with no phase bookkeeping.

The rule is computed over whole columns, one entry per device
(:func:`v_paging_frame_offset`, :func:`v_paging_subframe`): fleets,
planners, plan validation and the executor all derive paging occasions
here. The per-device formula the kernels were vectorised from is their
test oracle, ``tests/paging_oracle.py``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.errors import PagingError
from repro.timebase import FRAMES_PER_HYPERFRAME

#: NB-IoT UE identities are derived from the IMSI modulo 4096 (TS 36.304).
UE_ID_SPACE = 4096

#: The eDRX hashed identity is 10 bits wide (covers T_eDRX,H up to 1024).
HASHED_ID_SPACE = 1024


class NB(Enum):
    """The cell-wide ``nB`` parameter as a fraction of the paging cycle T."""

    FOUR_T = Fraction(4)
    TWO_T = Fraction(2)
    ONE_T = Fraction(1)
    HALF_T = Fraction(1, 2)
    QUARTER_T = Fraction(1, 4)
    ONE_EIGHTH_T = Fraction(1, 8)
    ONE_SIXTEENTH_T = Fraction(1, 16)
    ONE_THIRTY_SECOND_T = Fraction(1, 32)

    @property
    def fraction(self) -> Fraction:
        """nB / T as an exact fraction."""
        return self.value


#: PO subframe patterns (FDD) indexed by Ns, per TS 36.304 Table 7.2-1.
_SUBFRAME_PATTERNS = {
    1: (9,),
    2: (4, 9),
    4: (0, 4, 5, 9),
}


def v_default_hashed_id(
    ue_ids: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Deterministic 10-bit hash standing in for the S-TMSI Hashed_ID,
    mixed in place in ``out`` (a fresh array when not given).

    TS 36.304 hashes the S-TMSI with a CRC; we use a Knuth
    multiplicative mix of the UE identity, which spreads the 4096 UE_ID
    values uniformly over the 1024 hashed values.
    """
    mixed = np.multiply(_v_ue_ids(ue_ids), 2654435761, out=out)
    mixed &= 0xFFFFFFFF
    mixed >>= 22
    mixed &= HASHED_ID_SPACE - 1
    return mixed


def _v_nb_per_cycle(pf_cycle: np.ndarray, nb: NB) -> np.ndarray:
    """Integer ``nB`` for each intra-hyperframe cycle (a fresh array)."""
    num, den = nb.fraction.numerator, nb.fraction.denominator
    nb_int = pf_cycle * num
    if den > 1 and nb_int.size and np.any(nb_int % den):
        raise PagingError(f"nB={nb.name} of some cycle in the fleet is not an integer")
    nb_int //= den
    return nb_int


def _v_ue_ids(ue_ids: np.ndarray) -> np.ndarray:
    ue = np.asarray(ue_ids, dtype=np.int64)
    if ue.size and (ue.min() < 0 or ue.max() >= UE_ID_SPACE):
        raise PagingError(f"UE_ID must be in [0, {UE_ID_SPACE})")
    return ue


def v_paging_frame_offset(
    ue_ids: np.ndarray, cycles: np.ndarray, nb: NB = NB.ONE_T, out=None
) -> np.ndarray:
    """Frame offset of each device's paging frames within its cycle.

    A device's paging frames are exactly the absolute frames ``f`` with
    ``f mod T == offset``. ``ue_ids`` and ``cycles`` are parallel
    columns (UE_IDs and cycle lengths in frames, ladder values); ``nb``
    is the cell's :class:`NB`. For eDRX cycles the offset combines the
    paging hyperframe (from the hashed identity) with the
    intra-hyperframe PF offset (from the UE identity).

    The offsets are written into ``out`` when given: an int64 array of
    the same shape, which may be ``ue_ids`` itself (the UE_IDs are read
    for the last time as ``out`` is first written). The call holds at
    most three full-width arrays at once, ``out`` included.
    """
    ue = _v_ue_ids(ue_ids)
    t = np.asarray(cycles, dtype=np.int64)
    if ue.shape != t.shape:
        raise PagingError(f"ue_ids and cycles disagree: {ue.shape} vs {t.shape}")
    pf_cycle = np.minimum(t, FRAMES_PER_HYPERFRAME)
    n = _v_nb_per_cycle(pf_cycle, nb)
    np.minimum(n, pf_cycle, out=n)
    if n.size and n.min() < 1:
        raise PagingError("nB yields N < 1 for some cycle")
    # The PF offset (T' div N) * (UE_ID mod N), built in ``n``.
    pf_cycle //= n
    np.remainder(ue, n, out=n)
    n *= pf_cycle
    # The paging hyperframe, Hashed_ID mod T_eDRX,H: a regular cycle's
    # T div 1024 is at most 1, so its term is 0.
    hyperframes = np.floor_divide(t, FRAMES_PER_HYPERFRAME, out=pf_cycle)
    np.maximum(hyperframes, 1, out=hyperframes)
    offset = v_default_hashed_id(ue, out=out)
    offset %= hyperframes
    offset *= FRAMES_PER_HYPERFRAME
    offset += n
    return offset


def v_paging_subframe(
    ue_ids: np.ndarray, cycles: np.ndarray, nb: NB = NB.ONE_T
) -> np.ndarray:
    """Subframe (0-9) of each device's paging occasion within its PF
    (columns and ``nb`` as in :func:`v_paging_frame_offset`)."""
    ue = _v_ue_ids(ue_ids)
    pf_cycle = np.minimum(np.asarray(cycles, dtype=np.int64), FRAMES_PER_HYPERFRAME)
    nb_int = _v_nb_per_cycle(pf_cycle, nb)
    n = np.minimum(pf_cycle, nb_int)
    ns = np.maximum(1, nb_int // pf_cycle)
    if ns.size and not np.all(np.isin(ns, tuple(_SUBFRAME_PATTERNS))):
        raise PagingError("unsupported Ns for some device")
    # Row Ns of the table holds the subframe pattern for that Ns.
    patterns = np.zeros((max(_SUBFRAME_PATTERNS) + 1, 4), dtype=np.int64)
    for k, pattern in _SUBFRAME_PATTERNS.items():
        patterns[k, : len(pattern)] = pattern
    return patterns[ns, (ue // n) % ns]
