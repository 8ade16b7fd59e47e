"""The NB-IoT device model.

Devices are immutable value objects: the dynamic pieces of a campaign
(temporary DA-SC cycle overrides, connection state, ledgers) live in the
plan and executor layers, which keeps devices safely shareable between
Monte-Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.devices.battery import Battery
from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.config import DrxConfig
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB, PagingOccasionPattern
from repro.drx.schedule import PoSchedule
from repro.phy.coverage import PROFILES, CoverageClass, CoverageProfile


@dataclass(frozen=True)
class NbIotDevice:
    """A single NB-IoT device as seen by the eNB.

    Attributes:
        identity: the subscriber identity (drives paging occasions).
        drx: the negotiated DRX configuration.
        coverage: the device's coverage-enhancement class.
        category: application category (metering, tracking, ...).
        battery: optional battery for lifetime estimates.
    """

    identity: DeviceIdentity
    drx: DrxConfig
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
        """Convenience constructor wiring identity -> DRX configuration."""
        identity = DeviceIdentity(imsi)
        return cls(
            identity=identity,
            drx=DrxConfig(identity.ue_id, cycle, nb),
            coverage=coverage,
            category=category,
            battery=battery,
        )

    # ------------------------------------------------------------------
    # Paging / DRX views
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> DrxCycle:
        """The device's preferred (negotiated) DRX cycle."""
        return self.drx.cycle

    @property
    def pattern(self) -> PagingOccasionPattern:
        """Paging pattern under the preferred cycle."""
        return self.drx.pattern

    @property
    def schedule(self) -> PoSchedule:
        """Integer PO schedule under the preferred cycle."""
        return self.pattern.schedule

    @property
    def link(self) -> CoverageProfile:
        """Link characteristics of the device's coverage class."""
        return PROFILES[self.coverage]

    def __str__(self) -> str:
        return (
            f"{self.identity} {self.category.value} "
            f"T={self.cycle.seconds:g}s {self.coverage.value}"
        )
