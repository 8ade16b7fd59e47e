"""The NB-IoT device model.

Devices are immutable value objects: the dynamic pieces of a campaign
(temporary DA-SC cycle overrides, connection state, ledgers) live in the
plan and executor layers, which keeps devices safely shareable between
Monte-Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.devices.battery import Battery
from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB
from repro.phy.coverage import PROFILES, CoverageClass, CoverageProfile


@dataclass(frozen=True)
class NbIotDevice:
    """A single NB-IoT device as seen by the eNB.

    Attributes:
        identity: the subscriber identity; its UE_ID
            (``identity.ue_id``) drives the paging occasions.
        cycle: the device's preferred (negotiated) DRX cycle, its
            long-term, battery-budgeted choice. DA-SC's temporary cycle
            lives in the plan, never in the device.
        nb: the cell's ``nB`` paging-density parameter.
        coverage: the device's coverage-enhancement class.
        category: application category (metering, tracking, ...).
        battery: optional battery for lifetime estimates.

    The device's paging occasions are not stored: fleets derive every
    device's phase at once with
    :func:`repro.drx.paging.v_paging_frame_offset`.
    """

    identity: DeviceIdentity
    cycle: DrxCycle
    nb: NB = NB.ONE_T
    coverage: CoverageClass = CoverageClass.NORMAL
    category: DeviceCategory = DeviceCategory.GENERIC
    battery: Optional[Battery] = None

    @classmethod
    def build(
        cls,
        imsi: int,
        cycle: DrxCycle,
        *,
        coverage: CoverageClass = CoverageClass.NORMAL,
        category: DeviceCategory = DeviceCategory.GENERIC,
        nb: NB = NB.ONE_T,
        battery: Optional[Battery] = None,
    ) -> "NbIotDevice":
        """Convenience constructor from a raw IMSI."""
        return cls(
            identity=DeviceIdentity(imsi),
            cycle=cycle,
            nb=nb,
            coverage=coverage,
            category=category,
            battery=battery,
        )

    @property
    def link(self) -> CoverageProfile:
        """Link characteristics of the device's coverage class."""
        return PROFILES[self.coverage]

    def __str__(self) -> str:
        return (
            f"{self.identity} {self.category.value} "
            f"T={self.cycle.seconds:g}s {self.coverage.value}"
        )
