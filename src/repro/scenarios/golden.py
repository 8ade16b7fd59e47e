"""Golden-metrics regression pinning for registered scenarios.

Every registered scenario's headline metrics (mean wait, fleet
energy/uptime, segments sent, transmission count) are pinned to a
committed JSON file at a fixed, fast configuration (2 runs, capped
fleet). The integration suite recomputes them and fails if any metric
moves beyond tolerance, so a future PR cannot silently shift simulation
results; an intentional change re-pins with ``python -m repro scenarios
run --all --update-golden``.

Next to the metric pins live *event-log pins*: run 0 of each golden
configuration, recorded as a ``.npz``
(:class:`~repro.sim.eventlog.RunLog`) under ``golden_runlogs/``. When
a metric drifts, the number alone says nothing about *where* the
simulation diverged — so the failure path re-records the drifted run
and attaches the structural event diff (first diverging event,
per-kind and per-device deltas, the ``runs diff`` machinery) to the
report. ``--update-golden`` refreshes both pin sets together.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.registry import all_scenarios, scenario
from repro.scenarios.runner import headline_means, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.eventlog import RunLog, diff_runlogs, format_runlog_diff

#: Monte-Carlo runs per scenario when computing golden metrics. Two is
#: enough to exercise the aggregation while keeping the whole registry
#: a seconds-scale check.
GOLDEN_RUNS = 2

#: Fleet-size cap applied when computing golden metrics (the registered
#: sizes are sweep-scale; regression pinning only needs determinism).
GOLDEN_DEVICE_CAP = 120

#: Relative tolerance for a metric to count as unmoved. The pipeline is
#: seeded and deterministic, so anything beyond float-reduction noise
#: is a real behavioural change.
GOLDEN_REL_TOL = 1e-9

#: The committed pin file.
GOLDEN_PATH = Path(__file__).with_name("golden_metrics.json")

#: Committed event-log pins: run 0 of each golden configuration.
GOLDEN_RUNLOG_DIR = Path(__file__).with_name("golden_runlogs")


def golden_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The reduced configuration a scenario is pinned at."""
    return spec.with_overrides(
        n_runs=GOLDEN_RUNS,
        n_devices=min(spec.n_devices, GOLDEN_DEVICE_CAP),
    )


def compute_golden_metrics(
    names: Optional[Sequence[str]] = None,
    *,
    backend: str = "serial",
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Recompute the pinned headline metrics for ``names`` (default all)."""
    specs = (
        all_scenarios()
        if names is None
        else [scenario(name) for name in names]
    )
    out: Dict[str, Dict[str, float]] = {}
    for spec in specs:
        stats = run_scenario(
            golden_spec(spec),
            backend=backend,
            workers=workers,
        )
        out[spec.name] = headline_means(stats)
    return out


def load_golden(path: Optional[Path] = None) -> Dict[str, Dict[str, float]]:
    """The committed golden metrics, keyed by scenario name."""
    path = GOLDEN_PATH if path is None else Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(
            f"no golden metrics at {path}; pin them with "
            "`python -m repro scenarios run --all --update-golden`"
        ) from None
    if payload.get("runs") != GOLDEN_RUNS or payload.get(
        "device_cap"
    ) != GOLDEN_DEVICE_CAP:
        raise ConfigurationError(
            f"golden file {path} was pinned under different settings "
            f"(runs={payload.get('runs')}, device_cap="
            f"{payload.get('device_cap')}); re-pin it"
        )
    return payload["scenarios"]


def write_golden(
    metrics: Dict[str, Dict[str, float]], path: Optional[Path] = None
) -> Path:
    """Persist ``metrics`` as the new pin file."""
    path = GOLDEN_PATH if path is None else Path(path)
    payload = {
        "runs": GOLDEN_RUNS,
        "device_cap": GOLDEN_DEVICE_CAP,
        "scenarios": {
            name: dict(sorted(values.items()))
            for name, values in sorted(metrics.items())
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def golden_runlog_path(
    name: str, directory: Optional[Path] = None
) -> Path:
    """Where scenario ``name``'s event-log pin lives."""
    directory = GOLDEN_RUNLOG_DIR if directory is None else Path(directory)
    return directory / f"{name}.npz"


def record_golden_runlog(spec: ScenarioSpec) -> RunLog:
    """Record run 0 of ``spec``'s golden configuration."""
    from repro.scenarios.record import record_run

    return record_run(golden_spec(spec), run_index=0).runlog


def write_golden_runlogs(
    names: Optional[Sequence[str]] = None,
    directory: Optional[Path] = None,
) -> Dict[str, Path]:
    """Re-pin the event logs for ``names`` (default: every scenario)."""
    directory = GOLDEN_RUNLOG_DIR if directory is None else Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    specs = (
        all_scenarios()
        if names is None
        else [scenario(name) for name in names]
    )
    out: Dict[str, Path] = {}
    for spec in specs:
        runlog = record_golden_runlog(spec)
        out[spec.name] = runlog.save(golden_runlog_path(spec.name, directory))
    return out


def golden_event_diff(
    name: str, directory: Optional[Path] = None
) -> Optional[str]:
    """The structural event diff of scenario ``name`` against its pin.

    Re-records run 0 of the golden configuration and diffs it against
    the committed ``.npz`` with the ``runs diff`` machinery. Returns
    ``None`` when the logs are event-identical, a rendered diff when
    they diverge, and a pointer to re-pin when no pin exists — so a
    metric-drift report always carries the event-level story.
    """
    path = golden_runlog_path(name, directory)
    if not path.exists():
        return (
            f"no event-log pin at {path}; re-pin with "
            "`python -m repro scenarios run --all --update-golden`"
        )
    pinned = RunLog.load(path)
    fresh = record_golden_runlog(scenario(name))
    diff = diff_runlogs(pinned, fresh)
    if diff.is_empty and not diff.meta_notes:
        return None
    return format_runlog_diff(diff)


def drifted_scenarios(problems: Sequence[str]) -> List[str]:
    """The scenario names a :func:`diff_golden` report implicates."""
    names = []
    for problem in problems:
        name = problem.split(":", 1)[0].split(".", 1)[0]
        if name and name not in names:
            names.append(name)
    return names


def diff_golden(
    current: Dict[str, Dict[str, float]],
    pinned: Dict[str, Dict[str, float]],
    rel_tol: float = GOLDEN_REL_TOL,
) -> List[str]:
    """Human-readable discrepancies between ``current`` and ``pinned``.

    Empty list = regression-free. Missing scenarios/metrics on either
    side are discrepancies too (a silently dropped scenario is as much a
    regression as a shifted metric).
    """
    problems: List[str] = []
    for name in sorted(set(pinned) - set(current)):
        problems.append(f"{name}: pinned scenario missing from current run")
    for name in sorted(set(current) - set(pinned)):
        problems.append(f"{name}: scenario not pinned (re-pin golden metrics)")
    for name in sorted(set(current) & set(pinned)):
        want, got = pinned[name], current[name]
        for metric in sorted(set(want) | set(got)):
            if metric not in got:
                problems.append(f"{name}.{metric}: missing from current run")
                continue
            if metric not in want:
                problems.append(f"{name}.{metric}: not pinned")
                continue
            if not math.isclose(
                got[metric], want[metric], rel_tol=rel_tol, abs_tol=rel_tol
            ):
                problems.append(
                    f"{name}.{metric}: pinned {want[metric]!r} but got "
                    f"{got[metric]!r}"
                )
    return problems
