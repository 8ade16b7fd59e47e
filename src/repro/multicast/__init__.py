"""The on-demand multicast scheme of the paper's reference [3].

The grouping mechanisms of this library plug into the on-demand
multicast pipeline proposed by Tsoukaneri et al. (IEEE IoT-J 2018): a
coordination entity (manufacturer/operator) hands the eNB a device list
plus the payload, the eNB pages exactly those devices and serves them
over an on-the-fly multicast bearer. No subscriptions, no service
announcements, no periodic monitoring.

:mod:`repro.multicast.scptm` models the standardised alternative
(SC-PTM) whose periodic control-channel monitoring is the overhead the
on-demand scheme exists to avoid — used by the A5 ablation bench.
"""

from repro.multicast.payload import FirmwareImage
from repro.multicast.ondemand import CampaignReport, OnDemandMulticastService
from repro.multicast.scptm import ScPtmConfig, scptm_monitoring_overhead_s
from repro.multicast.coordination import (
    MultiCellSpec,
    attach_devices,
    partition_fleet,
    partition_indices,
)
from repro.multicast.reliability import (
    ReliabilityConfig,
    RepairOutcome,
    simulate_repair_rounds,
)

__all__ = [
    "FirmwareImage",
    "OnDemandMulticastService",
    "CampaignReport",
    "ScPtmConfig",
    "scptm_monitoring_overhead_s",
    "MultiCellSpec",
    "attach_devices",
    "partition_fleet",
    "partition_indices",
    "ReliabilityConfig",
    "RepairOutcome",
    "simulate_repair_rounds",
]
