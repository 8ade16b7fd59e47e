"""Command-line interface.

Examples::

    python -m repro figures --figure 7 --runs 20
    python -m repro figures --figure all --runs 5 --devices 200
    python -m repro figures --figure 6a --backend fused --workers 4 --cache
    python -m repro figures --figure 7 --runs 3 --device-counts 1000,10000,100000
    python -m repro demo --mechanism da-sc --devices 100 --payload 100000
    python -m repro scenarios list
    python -m repro scenarios run --all --runs 2
    python -m repro scenarios run --scenario contention-storm --backend fused
    python -m repro scenarios sweep --scenario dense-urban \
        --axis devices=100,400 --axis collision=0,0.2 --axis loss=0,0.05
    python -m repro multicell --devices 100000 --cells 32 \
        --backend fused --workers 8
    python -m repro multicell --devices 5000 --cells 4 \
        --weights 0.55,0.25,0.15,0.05 --verify
    python -m repro grouping list
    python -m repro scenarios sweep --scenario paper-baseline \
        --axis grouping=greedy-cover,coverage-stratified,random
    python -m repro multicell --devices 50000 --cells 8 \
        --grouping collision-aware
    python -m repro runs record --scenario paper-baseline --out run.npz
    python -m repro runs replay --log run.npz --verify
    python -m repro runs diff run.npz other.npz
    python -m repro multicell --devices 5000 --cells 4 --record cells.npz
    python -m repro scenarios sweep --scenario dense-urban \
        --axis record=0,1 --axis loss=0,0.05 --record-dir ./runlogs
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core import mechanism_by_name
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import KNOWN_TARGETS, render_all, run_with_charts
from repro.multicast import FirmwareImage, OnDemandMulticastService
from repro.sim.dispatch import BACKENDS
from repro.sim.rng import generator_for
from repro.traffic import PAPER_DEFAULT_MIXTURE, generate_fleet

#: Where ``figures --cache`` stores results (gitignored).
DEFAULT_CACHE_DIR = ".repro-cache"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'On Device Grouping for Efficient Multicast "
            "Communications in Narrowband-IoT' (ICDCS 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures / ablations"
    )
    figures.add_argument(
        "--figure",
        action="append",
        dest="figures",
        choices=list(KNOWN_TARGETS) + ["all"],
        help="which figure/ablation to run (repeatable; default all)",
    )
    figures.add_argument("--runs", type=int, default=None, help="Monte-Carlo runs")
    figures.add_argument(
        "--devices", type=int, default=None, help="fleet size for Fig. 6"
    )
    figures.add_argument(
        "--device-counts",
        default=None,
        metavar="N,N,...",
        help=(
            "comma-separated fleet sizes for the Fig. 7 sweep "
            "(e.g. 1000,10000,100000 — the columnar fast path keeps "
            "10^5-device sweeps practical)"
        ),
    )
    figures.add_argument("--seed", type=int, default=None, help="root seed")
    figures.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="Monte-Carlo execution backend (default serial)",
    )
    figures.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for --backend fused (default: all cores)",
    )
    figures.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache Monte-Carlo results under DIR (reruns become free)",
    )
    figures.add_argument(
        "--cache",
        action="store_true",
        help=f"shorthand for --cache-dir {DEFAULT_CACHE_DIR}",
    )
    figures.add_argument(
        "--grouping",
        default=None,
        metavar="POLICY",
        help=(
            "grouping policy for the windowed mechanism "
            "(see `grouping list`; default: the paper's greedy cover)"
        ),
    )

    demo = sub.add_parser("demo", help="run one campaign and print the report")
    demo.add_argument(
        "--mechanism",
        default="da-sc",
        choices=["dr-sc", "da-sc", "dr-si", "unicast"],
    )
    demo.add_argument("--devices", type=int, default=100)
    demo.add_argument("--payload", type=int, default=100_000)
    demo.add_argument("--seed", type=int, default=2018)

    scenarios = sub.add_parser(
        "scenarios", help="list / run / sweep registered scenarios"
    )
    actions = scenarios.add_subparsers(dest="action", required=True)

    actions.add_parser("list", help="tabulate the registered scenarios")

    def _selection_and_execution(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            action="append",
            dest="scenarios",
            metavar="NAME",
            help="scenario name (repeatable; see `scenarios list`)",
        )
        p.add_argument(
            "--all", action="store_true", help="select every registered scenario"
        )
        p.add_argument("--runs", type=int, default=None, help="Monte-Carlo runs")
        p.add_argument("--seed", type=int, default=None, help="root seed")
        p.add_argument(
            "--backend", choices=list(BACKENDS), default=None,
            help="Monte-Carlo execution backend (default serial)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="pool size for --backend fused (default: all cores)",
        )
        p.add_argument(
            "--grouping", default=None, metavar="POLICY",
            help=(
                "override the selected scenarios' grouping policy "
                "(see `grouping list`)"
            ),
        )

    run_p = actions.add_parser("run", help="run scenarios and print metrics")
    _selection_and_execution(run_p)
    run_p.add_argument(
        "--progress", action="store_true",
        help=(
            "stream one line per completed cell/run as results land"
        ),
    )
    run_p.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="also write the headline metrics as JSON to FILE",
    )
    run_p.add_argument(
        "--check-golden", action="store_true",
        help=(
            "compare the selected scenarios against the committed golden "
            "metrics (exit 1 on drift)"
        ),
    )
    run_p.add_argument(
        "--golden-diff", metavar="FILE", default=None,
        help="write the golden comparison (diffs or empty list) as JSON",
    )
    run_p.add_argument(
        "--update-golden", action="store_true",
        help=(
            "re-pin the committed golden metrics for the selected scenarios "
            "(a partial selection merges into the existing pin file)"
        ),
    )

    sweep_p = actions.add_parser(
        "sweep", help="expand a scenario x axis grid and run every cell"
    )
    _selection_and_execution(sweep_p)
    sweep_p.add_argument(
        "--axis",
        action="append",
        dest="axes",
        metavar="NAME=V1,V2,...",
        help=(
            "sweep axis (repeatable; devices/payload/ti/collision/loss/"
            "cells/record). Default: a 3-axis devices x collision x loss grid"
        ),
    )
    sweep_p.add_argument(
        "--record-dir",
        metavar="DIR",
        default=None,
        help=(
            "write per-run event logs (.npz) of grid cells with "
            "record_events set (e.g. a record=1 axis) into DIR"
        ),
    )

    runs = sub.add_parser(
        "runs",
        help="record, log-only replay and diff single Monte-Carlo runs",
    )
    runs_actions = runs.add_subparsers(dest="action", required=True)

    record_p = runs_actions.add_parser(
        "record", help="execute one run with event recording and save the log"
    )
    record_p.add_argument(
        "--scenario", required=True, metavar="NAME",
        help="scenario name (see `scenarios list`)",
    )
    record_p.add_argument(
        "--run-index", type=int, default=0,
        help="which Monte-Carlo run to record (default 0)",
    )
    record_p.add_argument("--seed", type=int, default=None, help="root seed")
    record_p.add_argument(
        "--out", metavar="FILE", default=None,
        help="output .npz path (default: <scenario>-<fp>-run<K>.npz in cwd)",
    )

    replay_p = runs_actions.add_parser(
        "replay",
        help="rebuild a recorded run's metrics from the log alone (STRICT)",
    )
    replay_p.add_argument(
        "--log", required=True, metavar="FILE", help="recorded run (.npz)"
    )
    replay_p.add_argument(
        "--verify", action="store_true",
        help=(
            "also re-execute the run live from the registry and demand the "
            "event stream and metrics match exactly (exit 1 on drift)"
        ),
    )

    diff_p = runs_actions.add_parser(
        "diff", help="structurally diff two recorded runs (exit 1 if differ)"
    )
    diff_p.add_argument("log_a", metavar="A", help="first recorded run (.npz)")
    diff_p.add_argument("log_b", metavar="B", help="second recorded run (.npz)")

    multicell = sub.add_parser(
        "multicell",
        help="run one coordinated multi-cell campaign and print the report",
    )
    multicell.add_argument("--devices", type=int, default=10_000)
    multicell.add_argument("--cells", type=int, default=8)
    multicell.add_argument(
        "--mechanism",
        default="dr-sc",
        choices=["dr-sc", "da-sc", "dr-si", "unicast"],
    )
    multicell.add_argument("--payload", type=int, default=1_000_000)
    multicell.add_argument("--seed", type=int, default=2018)
    multicell.add_argument(
        "--weights",
        default=None,
        metavar="W1,W2,...",
        help="per-cell attachment weights (must sum to 1; default uniform)",
    )
    multicell.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="serial",
        help="per-cell campaign execution backend (bit-identical results)",
    )
    multicell.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for --backend fused (default: all cores)",
    )
    multicell.add_argument(
        "--verify",
        action="store_true",
        help="also run the other backend and assert per-cell bit-identity",
    )
    multicell.add_argument(
        "--grouping",
        default=None,
        metavar="POLICY",
        help=(
            "grouping policy each cell plans with "
            "(see `grouping list`; default: the mechanism's own)"
        ),
    )
    multicell.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="record every cell's event log and save them as one .npz",
    )

    grouping = sub.add_parser(
        "grouping", help="inspect the registered grouping policies"
    )
    grouping_actions = grouping.add_subparsers(dest="action", required=True)
    grouping_actions.add_parser(
        "list", help="tabulate the registered grouping policies"
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run a scripted live session: overlapping campaigns with "
            "mid-campaign joins/leaves under capacity arbitration"
        ),
    )
    serve.add_argument(
        "--campaigns", type=int, default=2, help="number of campaigns"
    )
    serve.add_argument(
        "--devices", type=int, default=12, help="devices per campaign"
    )
    serve.add_argument(
        "--mechanism",
        default="dr-sc",
        choices=["dr-sc", "da-sc", "dr-si", "unicast"],
    )
    serve.add_argument("--payload", type=int, default=50_000)
    serve.add_argument("--seed", type=int, default=2018)
    serve.add_argument(
        "--stagger",
        type=int,
        default=1024,
        help="frames between campaign arrivals",
    )
    serve.add_argument(
        "--joins", type=int, default=1,
        help="devices joining the first campaign mid-flight",
    )
    serve.add_argument(
        "--leaves", type=int, default=1,
        help="devices leaving the last campaign mid-flight",
    )
    serve.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help=(
            "save the live event log as a .npz run log "
            "(diffable with `runs diff`)"
        ),
    )
    return parser


def _parse_counts(spec: str) -> tuple:
    """Parse a ``--device-counts`` comma list into a tuple of ints."""
    try:
        counts = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--device-counts must be a comma list of ints, got {spec!r}")
    if not counts:
        raise SystemExit("--device-counts must name at least one fleet size")
    return counts


def _selected_scenarios(args) -> list:
    """Resolve --scenario/--all into scenario specs (SystemExit if none)."""
    from repro.scenarios import all_scenarios, scenario

    if args.all:
        specs = all_scenarios()
    elif args.scenarios:
        specs = [scenario(name) for name in args.scenarios]
    else:
        raise SystemExit(
            "select scenarios with --scenario NAME (repeatable) or --all"
        )
    return _apply_grouping(specs, getattr(args, "grouping", None))


def _apply_grouping(specs: list, grouping: Optional[str]) -> list:
    """Apply a --grouping override to every selected spec."""
    if grouping is None:
        return specs
    return [spec.with_overrides(grouping=grouping) for spec in specs]


def _grouping_list() -> int:
    from repro.core.registry import MECHANISMS, mechanism_by_name
    from repro.experiments.reporting import Table, render_table
    from repro.grouping import GROUPING_POLICIES, grouping_policy_by_name

    defaults = {}
    for mechanism_name in MECHANISMS:
        mechanism = mechanism_by_name(mechanism_name)
        if mechanism.grouping_name is not None:
            defaults.setdefault(mechanism.grouping_name, []).append(
                mechanism_name
            )
    rows = []
    for name in GROUPING_POLICIES:
        policy = grouping_policy_by_name(name)
        rows.append(
            (
                name,
                "yes" if policy.guarantees_window_po else "no",
                ",".join(defaults.get(name, [])) or "-",
                policy.description,
            )
        )
    print(render_table(Table(
        title="Registered grouping policies",
        headers=("name", "window-PO guarantee", "default for", "description"),
        rows=tuple(rows),
        notes=(
            "policies without the window-PO guarantee cannot drive dr-sc "
            "(it has no way to wake a device lacking a window PO); da-sc "
            "adapts such devices' cycles and dr-si extends their pages.",
        ),
    )))
    return 0


def _scenarios_list() -> int:
    from repro.experiments.reporting import Table, render_table
    from repro.scenarios import all_scenarios
    from repro.scenarios.runner import format_spec_row

    table = Table(
        title="Registered scenarios",
        headers=(
            "name", "devices", "mixture", "mechanism", "grouping",
            "payload", "collision", "loss", "cells", "description",
        ),
        rows=tuple(format_spec_row(spec) for spec in all_scenarios()),
    )
    print(render_table(table))
    return 0


def _print_partial(partial) -> None:
    """One-line progress report per streamed partial result."""
    where = f" ({partial.address})" if partial.address is not None else ""
    if partial.kind == "sub":
        print(
            f"  run {partial.top_index}: cell slot {partial.position} "
            f"done{where}",
            flush=True,
        )
    elif partial.kind == "reduce":
        print(f"  run {partial.top_index}: reduced{where}", flush=True)
    else:
        print(f"  run {partial.top_index}: done{where}", flush=True)


def _scenarios_run(args) -> int:
    import json

    from repro.experiments.reporting import render_table
    from repro.scenarios import (
        GOLDEN_PATH,
        compute_golden_metrics,
        diff_golden,
        drifted_scenarios,
        golden_event_diff,
        headline_means,
        load_golden,
        run_scenario,
        scenario_table,
        write_golden,
        write_golden_runlogs,
    )

    specs = _selected_scenarios(args)
    backend = args.backend or "serial"
    # Golden flows honour the --scenario selection: a partial
    # --update-golden merges into the existing pin file, and a partial
    # --check-golden compares only the selected scenarios.
    names = None if args.all else [spec.name for spec in specs]

    if args.update_golden:
        # Re-pinning needs only the golden-configuration runs; skip the
        # full-resolution table run entirely.
        metrics = compute_golden_metrics(
            names, backend=backend, workers=args.workers
        )
        if names is not None and GOLDEN_PATH.exists():
            # load_golden still raises loudly on a settings mismatch, so
            # a partial re-pin can never silently drop other pins.
            metrics = {**load_golden(), **metrics}
        pinned = write_golden(metrics)
        print(
            f"re-pinned golden metrics for {len(metrics)} scenarios -> {pinned}"
        )
        runlogs = write_golden_runlogs(names)
        print(f"re-pinned {len(runlogs)} golden event logs")
        return 0

    on_partial = _print_partial if args.progress else None
    results = {
        spec.name: run_scenario(
            spec,
            backend=backend,
            workers=args.workers,
            n_runs=args.runs,
            seed=args.seed,
            on_partial=on_partial,
        )
        for spec in specs
    }
    runs_label = str(args.runs) if args.runs else "per-spec"
    print(render_table(scenario_table(results, runs_label)))

    if args.metrics_out:
        payload = {name: headline_means(stats) for name, stats in results.items()}
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote headline metrics -> {args.metrics_out}")

    if args.check_golden or args.golden_diff:
        current = compute_golden_metrics(
            names, backend=backend, workers=args.workers
        )
        pinned_metrics = load_golden()
        if names is not None:
            pinned_metrics = {
                name: values
                for name, values in pinned_metrics.items()
                if name in set(names)
            }
        problems = diff_golden(current, pinned_metrics)
        # A drifted metric says *that* the simulation moved; the event
        # diff against the pinned runlog says *where*. Attach it to the
        # failure path so CI reports carry the structural story.
        event_diffs = {}
        if problems:
            for name in drifted_scenarios(problems):
                try:
                    diff = golden_event_diff(name)
                except Exception as exc:  # unknown/unloadable scenario
                    diff = f"event diff unavailable: {exc}"
                if diff is not None:
                    event_diffs[name] = diff
        if args.golden_diff:
            with open(args.golden_diff, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "problems": problems,
                        "current": current,
                        "event_diffs": event_diffs,
                    },
                    fh,
                    indent=2,
                )
            print(f"wrote golden diff -> {args.golden_diff}")
        if problems:
            for problem in problems:
                print(f"GOLDEN DRIFT: {problem}")
            for name, diff in event_diffs.items():
                print(f"EVENT DIFF [{name}]:")
                for line in diff.splitlines():
                    print(f"  {line}")
            if args.check_golden:
                return 1
        else:
            print("golden metrics unchanged")
    return 0


def _scenarios_sweep(args) -> int:
    from repro.experiments.reporting import render_table
    from repro.scenarios import (
        DEFAULT_AXES,
        SweepAxis,
        parse_axis,
        run_sweep,
        sweep_table,
    )

    if args.all or args.scenarios:
        specs = _selected_scenarios(args)
    else:
        from repro.scenarios import all_scenarios

        # Default: sweep the whole registry.
        specs = _apply_grouping(all_scenarios(), args.grouping)
    axes = (
        [parse_axis(spec) for spec in args.axes]
        if args.axes
        else [SweepAxis(name, values) for name, values in DEFAULT_AXES]
    )
    sweeps_runs = any(axis.name == "runs" for axis in axes)
    if args.runs is not None and sweeps_runs:
        raise SystemExit("--runs conflicts with a runs=... sweep axis")
    n_runs = args.runs
    if n_runs is None and not sweeps_runs:
        n_runs = 3  # keep the default whole-registry sweep seconds-scale
    results = run_sweep(
        specs,
        axes,
        backend=args.backend or "serial",
        workers=args.workers,
        n_runs=n_runs,
        record_dir=args.record_dir,
    )
    print(render_table(sweep_table(results, axes)))
    if args.record_dir:
        recorded = sum(
            1 for cell, _ in results if cell.spec.record_events
        )
        print(
            f"recorded event logs for {recorded} grid cells -> {args.record_dir}"
        )
    return 0


def _runs_record(args) -> int:
    from repro.scenarios import record_run, run_log_filename, scenario

    spec = scenario(args.scenario)
    recorded = record_run(spec, args.run_index, seed=args.seed)
    out = args.out or run_log_filename(
        spec.name, spec.fingerprint(), args.run_index
    )
    path = recorded.runlog.save(out)
    n_events = sum(log.n_events for log in recorded.runlog.cells.values())
    print(
        f"recorded {spec.name} run {args.run_index}: "
        f"{len(recorded.runlog.cells)} cell(s), {n_events} events -> {path}"
    )
    for name in ("transmissions", "mean_wait_s", "energy_mj", "segments_sent"):
        print(f"  {name}: {recorded.metrics[name]:g}")
    return 0


def _runs_replay(args) -> int:
    from repro.scenarios import runlog_headline_metrics, verify_runlog
    from repro.sim.eventlog import RunLog

    runlog = RunLog.load(args.log)
    meta = runlog.meta
    print(
        f"run: scenario={meta.get('scenario')} seed={meta.get('seed')} "
        f"run_index={meta.get('run_index')} cells={sorted(runlog.cells)}"
    )
    for cell_id in sorted(runlog.cells):
        log = runlog.cells[cell_id]
        counts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(log.counts_by_kind().items())
        )
        print(f"  cell {cell_id}: {log.n_events} events ({counts})")
    metrics = runlog_headline_metrics(runlog)
    print("log-only metrics (STRICT replay, no re-simulation):")
    for name, value in metrics.items():
        print(f"  {name}: {value!r}")
    if args.verify:
        findings = verify_runlog(runlog)
        if findings:
            for finding in findings:
                print(f"VERIFY FAILED: {finding}")
            return 1
        print("verified: live re-execution matches the log bit for bit")
    return 0


def _runs_diff(args) -> int:
    from repro.sim.eventlog import RunLog, diff_runlogs, format_runlog_diff

    diff = diff_runlogs(RunLog.load(args.log_a), RunLog.load(args.log_b))
    print(format_runlog_diff(diff))
    return 0 if diff.is_empty else 1


def _parse_weights(spec: Optional[str]) -> Optional[tuple]:
    """Parse a ``--weights`` comma list into a tuple of floats."""
    if spec is None:
        return None
    try:
        weights = tuple(float(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--weights must be a comma list of floats, got {spec!r}")
    if not weights:
        raise SystemExit("--weights must name at least one cell weight")
    return weights


def _multicell(args) -> int:
    import time

    from repro.experiments.reporting import Table, render_table
    from repro.multicast.coordination import (
        CoordinationEntity,
        cells_bit_identical,
        partition_fleet,
    )
    from repro.timebase import format_bytes, format_duration, frames_to_seconds

    weights = _parse_weights(args.weights)
    policy = None
    if args.grouping is not None:
        from repro.grouping import grouping_policy_by_name

        policy = grouping_policy_by_name(args.grouping)
    rng = generator_for(args.seed)
    fleet = generate_fleet(args.devices, PAPER_DEFAULT_MIXTURE, rng)
    cells = partition_fleet(fleet, args.cells, rng, weights=weights)
    entity = CoordinationEntity(mechanism_by_name(args.mechanism, policy=policy))
    image = FirmwareImage(
        name="multicell-fw", version="1.0.0", size_bytes=args.payload
    )
    from repro.core.base import PlanningContext

    context = PlanningContext(payload_bytes=args.payload)

    started = time.perf_counter()
    report = entity.rollout(
        cells,
        image,
        context,
        seed=args.seed,
        backend=args.backend,
        workers=args.workers,
        record_events=args.record is not None,
    )
    elapsed = time.perf_counter() - started

    if args.record is not None:
        from repro.sim.eventlog import RunLog

        runlog = RunLog(
            meta={
                "scenario": "multicell-cli",
                "seed": args.seed,
                "run_index": 0,
                "mechanism": args.mechanism,
                "n_devices": args.devices,
                "n_cells": args.cells,
            },
            cells={c.cell_id: c.event_log for c in report.campaigns},
        )
        path = runlog.save(args.record)
        n_events = sum(log.n_events for log in runlog.cells.values())
        print(
            f"recorded {len(runlog.cells)} cell logs ({n_events} events) "
            f"-> {path}"
        )

    if args.verify:
        other_backend = "fused" if args.backend == "serial" else "serial"
        other = entity.rollout(
            cells,
            image,
            context,
            seed=args.seed,
            backend=other_backend,
            workers=args.workers,
        )
        for ours, theirs in zip(report.campaigns, other.campaigns):
            if not cells_bit_identical(ours, theirs):
                print(
                    f"VERIFY FAILED: cell {ours.cell_id} differs between "
                    f"{args.backend} and {other_backend} backends"
                )
                return 1
        print(f"verified: {args.backend} == {other_backend} per cell")

    rows = tuple(
        (
            str(c.cell_id),
            str(c.fleet_size),
            str(c.plan.n_transmissions),
            f"{c.result.mean_wait_s:.2f}s",
            format_duration(frames_to_seconds(c.result.horizon_frames)),
            f"{c.result.fleet.energy_mj / 1000:.1f} J",
        )
        for c in report.campaigns
    )
    print(render_table(Table(
        title=(
            f"Multi-cell campaign: {args.devices} devices, "
            f"{report.n_cells} cells, {args.mechanism}, "
            f"{format_bytes(args.payload)} via {args.backend} backend"
        ),
        headers=("cell", "devices", "tx", "mean wait", "duration", "energy"),
        rows=rows,
        notes=(
            f"totals: {report.total_transmissions} transmissions, "
            f"{report.total_energy_mj / 1000:.1f} J, campaign duration "
            f"{format_duration(report.campaign_duration_s)}; planned and "
            f"executed in {elapsed:.2f}s wall-clock.",
        ),
    )))
    return 0


def _serve(args) -> int:
    import asyncio

    from repro.devices.device import NbIotDevice
    from repro.drx.cycles import DrxCycle
    from repro.experiments.reporting import Table, render_table
    from repro.service import CampaignService
    from repro.timebase import format_duration, frames_to_seconds

    if args.campaigns < 1:
        raise SystemExit("--campaigns must be >= 1")
    leaves = min(args.leaves, max(0, args.devices - 1))
    rng = generator_for(args.seed)
    fleets = [
        generate_fleet(args.devices, PAPER_DEFAULT_MIXTURE, rng)
        for _ in range(args.campaigns)
    ]
    image = FirmwareImage(
        name="live-fw", version="1.0.0", size_bytes=args.payload
    )

    async def session():
        async with CampaignService(seed=args.seed) as service:
            handles = []
            for k, fleet in enumerate(fleets):
                await service.advance_to(k * args.stagger)
                handles.append(
                    service.submit(
                        fleet,
                        image,
                        mechanism=mechanism_by_name(args.mechanism),
                        name=f"campaign-{k}",
                    )
                )
            await service.advance_to(args.campaigns * args.stagger + 1024)
            for j in range(args.joins):
                joiner = NbIotDevice.build(
                    imsi=900_000_000_000 + 37 * j,
                    cycle=DrxCycle.from_seconds(20.48),
                )
                service.join(handles[0], joiner)
            for device_index in range(leaves):
                service.leave(handles[-1], device_index)
            reports = {
                handle.name: await service.result(handle)
                for handle in handles
            }
            return service.live_log(), service.metrics(), reports

    log, metrics, reports = asyncio.run(session())

    rows = tuple(
        (
            name,
            str(len(report.plan.directives)),
            str(report.plan.n_transmissions),
            format_duration(
                frames_to_seconds(report.result.horizon_frames)
            ),
            str(report.paging.total_pages),
            "yes" if report.paging.has_overflow else "no",
        )
        for name, report in reports.items()
    )
    print(render_table(Table(
        title=(
            f"Live session: {args.campaigns} campaigns x {args.devices} "
            f"devices, {args.mechanism}, staggered {args.stagger} frames"
        ),
        headers=(
            "campaign", "devices", "tx", "duration", "pages", "overflow"
        ),
        rows=rows,
        notes=(
            f"churn: {metrics.devices_joined} joined, "
            f"{metrics.devices_left} left across {metrics.revisions} "
            f"revisions; arbiter admitted {metrics.windows_admitted} "
            f"windows, deferred {metrics.windows_deferred} "
            f"(total shift {metrics.total_defer_frames} frames).",
        ),
    )))

    if args.record is not None:
        from repro.sim.eventlog import RunLog

        runlog = RunLog(
            meta={
                "scenario": "serve-cli",
                "seed": args.seed,
                "run_index": 0,
                "mechanism": args.mechanism,
                "n_campaigns": args.campaigns,
                "n_devices": args.devices,
                "payload_bytes": args.payload,
            },
            cells={0: log},
        )
        path = runlog.save(args.record)
        print(f"recorded live event log: {log.n_events} events -> {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "figures":
        config = ExperimentConfig()
        if args.runs is not None:
            config = replace(config, n_runs=args.runs)
        if args.devices is not None:
            config = replace(config, n_devices=args.devices)
        if args.device_counts is not None:
            config = replace(config, device_counts=_parse_counts(args.device_counts))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.backend is not None:
            config = replace(config, backend=args.backend)
        if args.workers is not None:
            config = replace(config, workers=args.workers)
        if args.grouping is not None:
            config = replace(config, grouping=args.grouping)
        cache_dir = args.cache_dir or (DEFAULT_CACHE_DIR if args.cache else None)
        if cache_dir is not None:
            config = replace(config, cache_dir=cache_dir)
        targets = None
        if args.figures and "all" not in args.figures:
            targets = args.figures
        tables, charts = run_with_charts(targets, config)
        print(render_all(tables, charts))
        return 0

    if args.command == "scenarios":
        if args.action == "list":
            return _scenarios_list()
        if args.action == "run":
            return _scenarios_run(args)
        return _scenarios_sweep(args)

    if args.command == "runs":
        if args.action == "record":
            return _runs_record(args)
        if args.action == "replay":
            return _runs_replay(args)
        return _runs_diff(args)

    if args.command == "multicell":
        return _multicell(args)

    if args.command == "grouping":
        return _grouping_list()

    if args.command == "serve":
        return _serve(args)

    if args.command == "demo":
        rng = generator_for(args.seed)
        fleet = generate_fleet(args.devices, PAPER_DEFAULT_MIXTURE, rng)
        service = OnDemandMulticastService(mechanism_by_name(args.mechanism))
        image = FirmwareImage(
            name="demo-sensor", version="2.0.1", size_bytes=args.payload
        )
        report = service.deliver(fleet, image, rng=rng)
        print(report.summary())
        return 0

    return 1  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":
    sys.exit(main())
