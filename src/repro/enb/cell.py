"""Cell-wide configuration.

Collects the knobs that are properties of the *cell* rather than of a
device or an experiment: the inactivity timer the eNB runs for connected
devices, the paging density parameter ``nB``, and the paging channel
record capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.drx.paging import NB
from repro.errors import ConfigurationError
from repro.timebase import frames_to_seconds


@dataclass(frozen=True)
class CellConfig:
    """Static configuration of the simulated NB-IoT cell.

    Attributes:
        inactivity_timer_frames: the TI of the paper — after downlink
            activity a connected device waits this long before returning
            to sleep ("usually 10-30 sec. in commercial networks",
            Sec. II-B). Grouping windows have exactly this length.
        nb: the TS 36.304 ``nB`` paging-density parameter.
        max_paging_records: paging records one paging message can carry.
    """

    inactivity_timer_frames: int = 2048  # 20.48 s
    nb: NB = NB.ONE_T
    max_paging_records: int = 16

    def __post_init__(self) -> None:
        if self.inactivity_timer_frames <= 0:
            raise ConfigurationError(
                "inactivity timer must be positive, got "
                f"{self.inactivity_timer_frames} frames"
            )
        if self.max_paging_records < 1:
            raise ConfigurationError(
                f"max_paging_records must be >= 1, got {self.max_paging_records}"
            )

    @property
    def inactivity_timer_s(self) -> float:
        """TI in seconds."""
        return frames_to_seconds(self.inactivity_timer_frames)
