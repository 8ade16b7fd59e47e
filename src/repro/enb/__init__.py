"""eNB-side substrate: cell configuration, paging channel, scheduler, arbiter.

The evolved NodeB (eNB) is the single coordinator in the paper's setting
("a single eNB scenario serving a large number of NB-IoT devices",
Sec. IV-A): it pages devices, adapts their DRX cycles, sets up the
multicast bearer and transmits. This package models the cell-level
resources those actions consume: a :class:`CellConfig` describes the
cell, and the paging and carrier reports of a campaign are folds of its
plan's columns (see :func:`repro.core.plan.plan_pages`).
"""

from repro.enb.cell import CellConfig
from repro.enb.paging_channel import PagingLoadReport, PagingOccupancy, paging_load
from repro.enb.scheduler import CarrierOccupancy, UtilizationReport, utilization
from repro.enb.arbiter import Admission, CapacityArbiter

__all__ = [
    "CellConfig",
    "PagingLoadReport",
    "PagingOccupancy",
    "paging_load",
    "utilization",
    "UtilizationReport",
    "CarrierOccupancy",
    "Admission",
    "CapacityArbiter",
]
