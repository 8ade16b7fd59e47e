"""Record, reconstruct and verify single scenario runs.

The bridge between the scenario layer and the columnar event log
(:mod:`repro.sim.eventlog`): :func:`record_run` drains exactly the work
item the Monte-Carlo harness runs as run *k* — same task, same child
generator — with event recording on, so a recorded ``.npz`` is a
faithful witness of the run the aggregate statistics already contain.
:func:`runlog_headline_metrics` rebuilds the headline metrics from a
recorded run *alone* (STRICT replay, no re-simulation) through the
runner's own fold, so the numbers are bit-identical to the live run's.
:func:`verify_runlog` closes the loop: re-execute the run live from the
registry and demand both the event stream and the metrics match
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.scenarios.registry import scenario
from repro.scenarios.runner import (
    HEADLINE_METRICS,
    CellSummary,
    fold_run,
    scenario_work_items,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim.dispatch import drain_inline
from repro.sim.eventlog import (
    RunLog,
    diff_runlogs,
    format_runlog_diff,
    replay_strict,
)
from repro.sim.events import EventKind


@dataclass
class RecordedRun:
    """One recorded Monte-Carlo run: live metrics plus its event log."""

    spec: ScenarioSpec
    run_index: int
    metrics: Dict[str, float]
    runlog: RunLog


def record_run(
    spec: ScenarioSpec,
    run_index: int = 0,
    *,
    seed: Optional[int] = None,
) -> RecordedRun:
    """Execute run ``run_index`` of ``spec`` with event recording on.

    The run is the campaign's own work item for ``run_index``, whose
    generator is ``SeedSequence(seed).spawn(n)[run_index]`` — child
    ``k`` of a seed sequence does not depend on how many siblings were
    spawned — so the recorded run is the *same* run that contributes
    row ``run_index`` to ``run_scenario``'s aggregated metric arrays.
    """
    if run_index < 0:
        raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
    root_seed = spec.seed if seed is None else seed
    item = scenario_work_items(
        replace(spec, record_events=True), root_seed, run_index + 1
    )[run_index]
    (output,) = drain_inline([item])
    return RecordedRun(
        spec=spec,
        run_index=run_index,
        metrics=output.metrics,
        runlog=output.runlog,
    )


@dataclass(frozen=True)
class _LoggedRepair:
    """The repair tallies a log preserves (its REPAIR_ROUND rows)."""

    segments_sent: int
    rounds: int


def runlog_headline_metrics(runlog: RunLog) -> Dict[str, float]:
    """The headline metrics of a recorded run, from the log alone.

    Every cell's :class:`~repro.sim.metrics.CampaignResult` is rebuilt
    by the STRICT replayer, summarised exactly as the live cell was,
    and folded by :func:`~repro.scenarios.runner.fold_run` — the fold
    the live run used — so the values are bit-identical to the live
    run's, not merely close.
    """
    cells = []
    repairs = []
    for cell_id in sorted(runlog.cells):
        log = runlog.cells[cell_id]
        result = replay_strict(log)
        fleet = result.fleet
        groups = log.of_kind(EventKind.DEVICE_DONE)["group"]
        cells.append(
            CellSummary(
                cell_id=cell_id,
                fleet_size=result.n_devices,
                n_transmissions=result.n_transmissions,
                largest_group=int(np.bincount(groups).max()),
                mean_wait_s=result.mean_wait_s,
                light_sleep_s=fleet.light_sleep_s,
                connected_s=fleet.connected_s,
                energy_mj=fleet.energy_mj,
            )
        )
        rounds = log.of_kind(EventKind.REPAIR_ROUND)
        repairs.append(
            _LoggedRepair(
                segments_sent=int(rounds["a"].sum()), rounds=rounds.size
            )
        )
    multi_cell = int(runlog.meta.get("n_cells", len(cells))) > 1
    metrics = fold_run(cells, repairs, multi_cell=multi_cell)
    return {name: metrics[name] for name in HEADLINE_METRICS}


def rerecord(runlog: RunLog) -> RecordedRun:
    """Re-execute a recorded run live, from the scenario registry.

    The log's run key (scenario name, spec fingerprint, seed, run
    index) identifies the run; a fingerprint mismatch against the
    registered spec means the scenario definition has drifted since the
    recording and is an error, not a silent re-run of something else.
    """
    meta = runlog.meta
    name = meta.get("scenario")
    if not name:
        raise SimulationError("run log metadata has no scenario name")
    spec = scenario(str(name))
    recorded_fp = meta.get("fingerprint")
    if recorded_fp and spec.fingerprint() != recorded_fp:
        raise SimulationError(
            f"scenario {name!r} has changed since this log was recorded "
            f"(fingerprint {spec.fingerprint()[:12]} != "
            f"recorded {str(recorded_fp)[:12]})"
        )
    seed = int(meta.get("seed", spec.seed))
    run_index = int(meta.get("run_index", 0))
    return record_run(spec, run_index, seed=seed)


def verify_runlog(runlog: RunLog) -> List[str]:
    """Findings against a recorded run; an empty list means verified.

    Two independent checks: (1) re-execute the run live and demand the
    fresh event stream is identical to the recorded one; (2) rebuild
    the headline metrics from the log alone and demand exact float
    equality with the live run's metrics.
    """
    findings: List[str] = []
    fresh = rerecord(runlog)
    diff = diff_runlogs(runlog, fresh.runlog)
    if not diff.is_empty:
        findings.append(format_runlog_diff(diff))
    rebuilt = runlog_headline_metrics(runlog)
    for key in HEADLINE_METRICS:
        live = fresh.metrics[key]
        if rebuilt[key] != live:
            findings.append(
                f"metric {key}: log-only {rebuilt[key]!r} != live {live!r}"
            )
    return findings
