"""Per-device DRX configuration.

The configuration couples the cycle a device negotiated at connection
time with the identity-derived paging pattern: exactly what one fleet
row stores. The paper notes (Sec. II-B) that "the eNB can unilaterally
decide on the DRX cycle, which is something that can be used to
forcibly synchronize the devices"; DA-SC's temporary cycle is such a
decision and lives in the plan (its ``adapted_cycle`` column), never in
the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB, PagingOccasionPattern, pattern_for


@dataclass(frozen=True)
class DrxConfig:
    """A device's negotiated DRX configuration.

    Attributes:
        ue_id: paging identity (IMSI mod 4096) the pattern derives from.
        cycle: the cycle the device negotiated (its long-term,
            battery-budgeted choice).
        nb: the cell's ``nB`` paging-density parameter.
    """

    ue_id: int
    cycle: DrxCycle
    nb: NB = NB.ONE_T

    @property
    def pattern(self) -> PagingOccasionPattern:
        """Paging pattern under the negotiated cycle."""
        return pattern_for(self.ue_id, self.cycle, self.nb)
