"""RRC/MAC control-plane modelling.

This package provides the control-plane vocabulary the grouping
mechanisms speak:

* the random access timing model with optional contention failures
  (:mod:`repro.rrc.random_access`);
* composite procedure durations — connection setup, the DA-SC
  reconfiguration episode, release (:mod:`repro.rrc.procedures`);
* the DR-SI ``T322`` wake-up timer (:mod:`repro.rrc.timers`).
"""

from repro.rrc.random_access import RandomAccessModel, RandomAccessOutcome
from repro.rrc.nprach import (
    NprachConfig,
    RachSimulationResult,
    simulate_rach,
    stampede_arrivals,
)
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.timers import T322Timer

__all__ = [
    "RandomAccessModel",
    "RandomAccessOutcome",
    "NprachConfig",
    "RachSimulationResult",
    "simulate_rach",
    "stampede_arrivals",
    "ProcedureTimings",
    "T322Timer",
]
