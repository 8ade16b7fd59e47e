"""The eNB facade.

Bundles the cell configuration with the paging channel and downlink
scheduler, and offers the plan-level services the grouping mechanisms
need (packing a plan's pages into messages, computing carrier
utilization of a plan's transmissions).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.devices.fleet import Fleet
from repro.drx.paging import v_paging_subframe
from repro.enb.cell import CellConfig
from repro.enb.paging_channel import PagingChannel, PagingLoadReport
from repro.enb.scheduler import (
    DownlinkScheduler,
    ScheduledTransmission,
    UtilizationReport,
)
from repro.rrc.messages import MulticastNotification


class ENodeB:
    """A single NB-IoT cell's base station."""

    def __init__(self, cell: CellConfig = CellConfig()) -> None:
        self._cell = cell
        self._paging = PagingChannel(max_records=cell.max_paging_records)
        self._scheduler = DownlinkScheduler()

    @property
    def cell(self) -> CellConfig:
        """The cell configuration."""
        return self._cell

    @property
    def paging_channel(self) -> PagingChannel:
        """The cell's paging channel."""
        return self._paging

    @property
    def scheduler(self) -> DownlinkScheduler:
        """The cell's downlink scheduler."""
        return self._scheduler

    def pack_pages(
        self,
        fleet: Fleet,
        pages: Sequence[Tuple[int, int]],
        notifications: Sequence[Tuple[int, int, int]] = (),
    ) -> PagingLoadReport:
        """Pack per-device pages into paging messages.

        Args:
            fleet: the device fleet (for UE identities and PO subframes).
            pages: (device_index, frame) pairs for standard pages.
            notifications: (device_index, frame, frames_until_tx) triples
                for DR-SI extension entries.
        """
        arrays = fleet.arrays
        subframes = v_paging_subframe(
            arrays.ue_ids,
            arrays.periods,
            (arrays.nb_numerators, arrays.nb_denominators),
        ).tolist()
        ue_ids = arrays.ue_ids.tolist()
        page_triples = [(frame, subframes[i], ue_ids[i]) for i, frame in pages]
        notif_triples = [
            (
                frame,
                subframes[i],
                MulticastNotification(
                    ue_id=ue_ids[i], frames_until_transmission=remaining
                ),
            )
            for i, frame, remaining in notifications
        ]
        return self._paging.pack(page_triples, notif_triples)

    def carrier_utilization(
        self,
        transmissions: Sequence[ScheduledTransmission],
        horizon_frames: int,
    ) -> UtilizationReport:
        """Downlink occupancy of ``transmissions`` over the horizon."""
        return self._scheduler.utilization(transmissions, horizon_frames)
