"""DRX / eDRX modelling.

Discontinuous Reception (DRX) lets an idle NB-IoT device power its radio
down and only wake at *paging occasions* (POs) to check the paging
channel. This package models:

* the power-of-two **cycle ladder** (0.32 s LTE DRX up to the 10485.76 s
  ≈ 175 min eDRX maximum; every value is exactly twice the previous one,
  Sec. II-B of the paper) — :mod:`repro.drx.cycles`;
* the 3GPP TS 36.304-style mapping from UE identities and cycles to
  the devices' paging frames/subframes — :mod:`repro.drx.paging`;
* exact integer PO window queries used by every grouping mechanism —
  :mod:`repro.drx.schedule`.

The paging and window functions work on whole columns (one entry per
device): they are the package's one paging-occasion rule. A device's negotiated cycle and
the cell's ``nB`` are fields of the device and fleet themselves.
"""

from repro.drx.cycles import (
    EDRX_LADDER,
    FULL_LADDER,
    LTE_DRX_LADDER,
    NBIOT_IDLE_LADDER,
    DrxCycle,
)
from repro.drx.paging import NB, v_paging_frame_offset, v_paging_subframe
from repro.drx.schedule import (
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
    "NB",
    "v_paging_frame_offset",
    "v_paging_subframe",
    "v_first_at_or_after",
    "v_last_before",
    "v_last_at_or_before",
    "v_has_in",
    "v_count_in",
    "v_pos_in_window",
]
