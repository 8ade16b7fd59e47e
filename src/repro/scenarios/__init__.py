"""Declarative scenario registry and stress-sweep subsystem.

The paper's evaluation varies one axis at a time; this package makes
whole deployment regimes first-class:

* :class:`~repro.scenarios.spec.ScenarioSpec` — one frozen dataclass
  naming fleet shape, coverage mix, RACH contention, loss/repair regime
  and campaign shape;
* a named registry of built-in scenarios spanning dense-urban,
  deep-coverage-heavy, contention-storm, lossy-link-repair and
  mixed-traffic regimes (:mod:`~repro.scenarios.registry`);
* comparison campaigns planning several labelled mechanisms on each
  run's one fleet, which the figures run on
  (:func:`~repro.scenarios.runner.comparison_campaign`);
* a sweep runner expanding scenario x axis grids into one Monte-Carlo
  task graph (:mod:`~repro.scenarios.sweep`);
* a golden-metrics harness pinning every registered scenario's headline
  metrics to committed JSON (:mod:`~repro.scenarios.golden`).

CLI: ``python -m repro scenarios list|run|sweep``.
"""

from repro.scenarios.golden import (
    GOLDEN_PATH,
    GOLDEN_RUNLOG_DIR,
    compute_golden_metrics,
    diff_golden,
    drifted_scenarios,
    golden_event_diff,
    golden_runlog_path,
    golden_spec,
    load_golden,
    record_golden_runlog,
    write_golden,
    write_golden_runlogs,
)
from repro.scenarios.record import (
    RecordedRun,
    record_run,
    rerecord,
    runlog_headline_metrics,
    verify_runlog,
)
from repro.scenarios.registry import (
    all_scenarios,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    HEADLINE_METRICS,
    comparison_campaign,
    headline_means,
    run_scenario,
    scenario_table,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import (
    AXIS_FIELDS,
    DEFAULT_AXES,
    SweepAxis,
    SweepCell,
    expand_grid,
    parse_axis,
    run_sweep,
    sweep_table,
)
from repro.sim.montecarlo import run_log_filename

__all__ = [
    "ScenarioSpec",
    "register_scenario",
    "scenario",
    "scenario_names",
    "all_scenarios",
    "run_scenario",
    "comparison_campaign",
    "run_log_filename",
    "headline_means",
    "scenario_table",
    "HEADLINE_METRICS",
    "RecordedRun",
    "record_run",
    "rerecord",
    "runlog_headline_metrics",
    "verify_runlog",
    "SweepAxis",
    "SweepCell",
    "AXIS_FIELDS",
    "DEFAULT_AXES",
    "parse_axis",
    "expand_grid",
    "run_sweep",
    "sweep_table",
    "golden_spec",
    "compute_golden_metrics",
    "load_golden",
    "write_golden",
    "diff_golden",
    "drifted_scenarios",
    "golden_event_diff",
    "golden_runlog_path",
    "record_golden_runlog",
    "write_golden_runlogs",
    "GOLDEN_PATH",
    "GOLDEN_RUNLOG_DIR",
]
