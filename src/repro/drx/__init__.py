"""DRX / eDRX modelling.

Discontinuous Reception (DRX) lets an idle NB-IoT device power its radio
down and only wake at *paging occasions* (POs) to check the paging
channel. This package models:

* the power-of-two **cycle ladder** (0.32 s LTE DRX up to the 10485.76 s
  ≈ 175 min eDRX maximum; every value is exactly twice the previous one,
  Sec. II-B of the paper) — :mod:`repro.drx.cycles`;
* the 3GPP TS 36.304-style mapping from a UE identity and a cycle to the
  device's paging frame/subframe — :mod:`repro.drx.paging`;
* exact integer PO schedules and vectorised window queries used by every
  grouping mechanism — :mod:`repro.drx.schedule`;
* per-device DRX configuration — :mod:`repro.drx.config`.
"""

from repro.drx.cycles import (
    EDRX_LADDER,
    FULL_LADDER,
    LTE_DRX_LADDER,
    NBIOT_IDLE_LADDER,
    DrxCycle,
)
from repro.drx.config import DrxConfig
from repro.drx.paging import (
    NB,
    PagingOccasionPattern,
    paging_frame_offset,
    paging_subframe,
    pattern_for,
)
from repro.drx.schedule import (
    PoSchedule,
    v_count_in,
    v_first_at_or_after,
    v_has_in,
    v_last_at_or_before,
    v_last_before,
    v_pos_in_window,
)

__all__ = [
    "DrxCycle",
    "LTE_DRX_LADDER",
    "NBIOT_IDLE_LADDER",
    "EDRX_LADDER",
    "FULL_LADDER",
    "DrxConfig",
    "NB",
    "paging_frame_offset",
    "paging_subframe",
    "pattern_for",
    "PagingOccasionPattern",
    "PoSchedule",
    "v_first_at_or_after",
    "v_last_before",
    "v_last_at_or_before",
    "v_has_in",
    "v_count_in",
    "v_pos_in_window",
]
