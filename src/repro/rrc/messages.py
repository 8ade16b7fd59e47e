"""RRC message dataclasses.

These are deliberately faithful to the structures the paper manipulates:

* an **RRCConnectionRequest** carries an establishment cause; DR-SI adds
  the new ``multicastReception`` value;
* **RRCConnectionReconfiguration** carries the (temporary) DRX cycle that
  DA-SC imposes, and later the original cycle when restoring.

Paging is not modelled message by message: every page, DA-SC
adaptation page and DR-SI ``mltc-transmission`` notification is one row
of the plan's page table (:func:`repro.core.plan.plan_pages`), counted
as one record at its paging occasion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.drx.cycles import DrxCycle


class EstablishmentCause(Enum):
    """RRCConnectionRequest establishment causes (TS 36.331 + DR-SI)."""

    MT_ACCESS = "mt-Access"
    MO_SIGNALLING = "mo-Signalling"
    MO_DATA = "mo-Data"
    MO_EXCEPTION_DATA = "mo-ExceptionData"
    DELAY_TOLERANT_ACCESS = "delayTolerantAccess"
    MULTICAST_RECEPTION = "multicastReception"
    """The paper's new cause (Sec. III-C): the connection exists only to
    receive a multicast transmission, not unicast downlink data."""

    @property
    def is_standard(self) -> bool:
        """False only for the paper's non-standard ``multicastReception``."""
        return self is not EstablishmentCause.MULTICAST_RECEPTION


@dataclass(frozen=True)
class RrcConnectionRequest:
    """Msg3 of the random access procedure."""

    ue_id: int
    cause: EstablishmentCause = EstablishmentCause.MT_ACCESS


@dataclass(frozen=True)
class RrcConnectionSetup:
    """eNB response establishing SRB1."""

    ue_id: int


@dataclass(frozen=True)
class RrcConnectionReconfiguration:
    """Reconfiguration carrying a DRX cycle override (DA-SC, Sec. III-B).

    Attributes:
        ue_id: target device.
        drx_cycle: the cycle being imposed (or restored).
        is_restore: True for the post-multicast restore message.
    """

    ue_id: int
    drx_cycle: DrxCycle
    is_restore: bool = False


@dataclass(frozen=True)
class RrcConnectionRelease:
    """Release; DA-SC uses it to send the device straight back to sleep
    "without waiting the inactivity timer to expire" (Sec. III-B)."""

    ue_id: int
    immediate_sleep: bool = True
