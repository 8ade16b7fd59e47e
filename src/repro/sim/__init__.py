"""Simulation: executors, the event engine and the Monte-Carlo harness.

Two executors produce equivalent campaign results from a plan:

* :class:`~repro.sim.executor.CampaignExecutor` — the vectorised fleet
  path (:mod:`repro.sim.columnar`): whole-fleet array arithmetic and an
  array-of-ledgers, used by experiments;
* :class:`~repro.sim.replay.EventDrivenCampaign` — replays the plan on
  the discrete-event engine (:mod:`repro.sim.engine`), the independent
  oracle the tests cross-validate the arithmetic against, and what
  examples use when they want an inspectable event trace.

:mod:`repro.sim.montecarlo` runs seeded repetitions and aggregates.
Every campaign is a list of work items (:mod:`repro.sim.dispatch`)
drained either in this process (``backend="serial"``) or on the fused
(run x cell) process pool (``backend="fused"``) — bit-identical by
construction — with an optional on-disk
:class:`~repro.sim.cache.ResultCache`.

Every executor can additionally record a columnar event log
(:mod:`repro.sim.eventlog`): pass an
:class:`~repro.sim.eventlog.EventLogRecorder` and the run's semantic
events serialise to one ``.npz`` per run, STRICT-replayable back into a
bit-identical :class:`~repro.sim.metrics.CampaignResult` and diffable
event-by-event.
"""

from repro.sim.rng import generator_for, spawn_generators
from repro.sim.eventlog import (
    EVENT_DTYPE,
    KIND_CODES,
    SCHEMA_VERSION,
    EventLog,
    EventLogRecorder,
    LogDiff,
    RunLog,
    RunLogDiff,
    canonical_order,
    compare_results,
    diff_logs,
    diff_runlogs,
    format_diff,
    format_runlog_diff,
    repair_round_rows,
    replay_strict,
    segment_loss_rows,
)
from repro.sim.metrics import (
    CampaignResult,
    DeviceOutcome,
    FleetOutcomes,
    FleetSummary,
)
from repro.sim.executor import CampaignExecutor
from repro.sim.columnar import execute_columnar
from repro.sim.events import Event, EventKind
from repro.sim.engine import Simulator
from repro.sim.replay import EventDrivenCampaign
from repro.sim.dispatch import BACKENDS
from repro.sim.montecarlo import (
    MonteCarlo,
    RunStatistics,
    run_monte_carlo,
)
from repro.sim.cache import ResultCache, fingerprint

__all__ = [
    "generator_for",
    "spawn_generators",
    "DeviceOutcome",
    "CampaignResult",
    "FleetOutcomes",
    "FleetSummary",
    "CampaignExecutor",
    "execute_columnar",
    "Event",
    "EventKind",
    "Simulator",
    "EventDrivenCampaign",
    "BACKENDS",
    "MonteCarlo",
    "RunStatistics",
    "run_monte_carlo",
    "ResultCache",
    "fingerprint",
    "SCHEMA_VERSION",
    "EVENT_DTYPE",
    "KIND_CODES",
    "EventLog",
    "EventLogRecorder",
    "LogDiff",
    "RunLog",
    "RunLogDiff",
    "canonical_order",
    "compare_results",
    "diff_logs",
    "diff_runlogs",
    "format_diff",
    "format_runlog_diff",
    "repair_round_rows",
    "replay_strict",
    "segment_loss_rows",
]
