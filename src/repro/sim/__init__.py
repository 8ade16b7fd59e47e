"""Simulation: the executor, the event log and the Monte-Carlo harness.

:class:`~repro.sim.executor.CampaignExecutor` executes a plan on the
vectorised fleet path (:mod:`repro.sim.columnar`): whole-fleet array
arithmetic. It returns a :class:`~repro.sim.metrics.CampaignResult`:
one frozen column table of per-device outcomes, whose rows read as
:class:`~repro.sim.metrics.DeviceOutcome` views. The tests
cross-validate it against an event-by-event replay of the plan on a
discrete-event engine; both are test oracles, kept in
``tests/executor_oracle.py`` and ``tests/engine_oracle.py``.

:mod:`repro.sim.montecarlo` runs seeded repetitions and aggregates
(:func:`~repro.sim.montecarlo.run_campaigns` is the one campaign
driver). Every campaign is a list of work items
(:mod:`repro.sim.dispatch`) drained either in this process
(``backend="serial"``) or on the fused (run x cell) process pool
(``backend="fused"``) — bit-identical by construction — with an
optional on-disk :class:`~repro.sim.cache.ResultCache`.

The executor can additionally record a columnar event log
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
    FleetSummary,
)
from repro.sim.executor import CampaignExecutor
from repro.sim.columnar import execute_columnar
from repro.sim.events import EventKind
from repro.sim.dispatch import BACKENDS
from repro.sim.montecarlo import RunStatistics
from repro.sim.cache import ResultCache, fingerprint

__all__ = [
    "generator_for",
    "spawn_generators",
    "DeviceOutcome",
    "CampaignResult",
    "FleetSummary",
    "CampaignExecutor",
    "execute_columnar",
    "EventKind",
    "BACKENDS",
    "RunStatistics",
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
