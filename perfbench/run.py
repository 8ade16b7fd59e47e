#!/usr/bin/env python3
"""The repository benchmark.

Drives one workload (see ``workloads.py``) through the public
``repro.scenarios.run_scenario`` and prints every metric by name and
unit, then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a checkout::

    python3 perfbench/run.py --workload cover-heavy --seed 2018 \\
        --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
(repeated in fresh interpreters: import, spec build, one small warm-up
campaign), then timed campaigns at the workload's size until
``--seconds`` is spent.
``--trace 1`` runs one untraced campaign and two traced ones and reports
the per-layer metrics of ``layers.py``; the traced ones wrap every
layer's public entry point (``tracing.py``), the first timing spans, the
second also tracing allocations. The span table is printed and the
spans are written to ``.perfbench-out/``. ``--devices`` shrinks the
workload (the self-test runs at 10^3 devices).

The program is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits with a non-zero status.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
from tracing import Tracer
from workloads import (
    SMALL_DEVICES,
    WORKLOADS,
    Workload,
    check_campaign,
    load_pins,
    run_values,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up is repeated this many times; setup_s is the median.
SETUP_REPEATS = 5


def import_program() -> Any:
    """Import ``repro.scenarios`` from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    scenarios = importlib.import_module("repro.scenarios")
    if not Path(scenarios.__file__).resolve().is_relative_to(src):
        raise SystemExit(
            f"perfbench: repro imported from {scenarios.__file__}"
        )
    return scenarios


class Campaigns:
    """Runs one workload's campaigns and checks every run's outputs."""

    def __init__(self, scenarios: Any, workload: Workload, seed: int,
                 n_devices: int) -> None:
        self.scenarios = scenarios
        self.workload = workload
        self.spec = workload.spec(seed, n_devices)
        self.pins = load_pins(workload, seed, n_devices)
        self.reference: Optional[List[Dict[str, float]]] = None
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, spec: Any = None, **kwargs: Any) -> Any:
        """One ``run_scenario`` call on the workload's backend and pool."""
        return self.scenarios.run_scenario(
            self.spec if spec is None else spec,
            backend=self.workload.backend,
            workers=self.workload.workers,
            **kwargs,
        )

    def timed(self, **kwargs: Any) -> Tuple[float, Optional[list]]:
        """Run, time and check one campaign: (wall s, per-run values)."""
        self.attempted += self.spec.n_runs
        start = time.perf_counter()
        try:
            stats = self.run(**kwargs)
        except Exception:
            wall = time.perf_counter() - start
            traceback.print_exc()
            self.failures.extend(["raised"] * self.spec.n_runs)
            return wall, None
        wall = time.perf_counter() - start
        runs = run_values(stats)
        self.failures.extend(check_campaign(
            self.spec, runs, self.reference, self.pins
        ))
        if self.reference is None:
            self.reference = runs
        return wall, runs

    @property
    def failed(self) -> int:
        return len(self.failures)


def warm_up(campaigns: Campaigns) -> Tuple[Any, List[Dict[str, float]]]:
    """Run the workload once at the small size: (small spec, run values).

    On a fused workload this starts and stops the pool.
    """
    spec = campaigns.spec
    small = campaigns.workload.spec(
        spec.seed, min(SMALL_DEVICES, spec.n_devices)
    )
    return small, run_values(campaigns.run(small, n_runs=1))


def set_up(campaigns: Campaigns) -> Tuple[float, List[str]]:
    """Median set-up seconds, and any serial/fused disagreement.

    Each set-up runs in a fresh interpreter (``setup_probe.py``), so
    every repeat includes importing the program. This process then
    warms up once, untimed, so its first timed campaign starts warm.
    For a fused workload the warm-up result is compared with the serial
    backend's on the same spec, so the serial == fused contract is
    checked at every seed.
    """
    spec = campaigns.spec
    probe = [
        sys.executable, str(Path(__file__).with_name("setup_probe.py")),
        campaigns.workload.name, str(spec.seed), str(spec.n_devices),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            probe, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout.split()[-1]))
    small, warm = warm_up(campaigns)
    problems = []
    if campaigns.workload.backend != "serial":
        serial = run_values(
            campaigns.scenarios.run_scenario(small, backend="serial", n_runs=1)
        )
        if serial != warm:
            problems.append(f"fused {warm} != serial {serial}")
    return statistics.median(times), problems


def peak_rss_mb() -> float:
    """Largest maxrss of this process and any reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(campaigns: Campaigns, seconds: float) -> Dict[str, float]:
    """Timed campaigns until ``seconds`` would be exceeded (at least one).

    Throughput is device-runs over the summed wall-clock of the campaigns
    that completed. The host's speed drifts between fast and slow phases
    lasting seconds; the sum weighs each phase by its share of the
    window, where a median of a few campaigns snaps to one phase.
    """
    n_devices = campaigns.spec.n_devices
    device_runs = 0
    busy_s = 0.0
    walls: List[float] = []
    begin = time.perf_counter()
    while True:
        wall, runs = campaigns.timed()
        walls.append(wall)
        if runs is not None:
            device_runs += n_devices * len(runs)
            busy_s += wall
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            break
    print(f"campaigns: {len(walls)}, wall s: "
          + ", ".join(f"{wall:.3f}" for wall in walls))
    return {
        "device_runs_per_s": device_runs / busy_s if busy_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(campaigns: Campaigns, memory: bool) -> Tuple[float, Any, list]:
    """One campaign with every layer wrapped: (wall s, runs, spans)."""
    spool = OUT_DIR / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool, memory=memory)
    if memory:
        tracemalloc.start()
    try:
        layers.install(tracer)
        with tracer.span("runner.run_scenario") as run_span:
            wall, runs = campaigns.timed()
    finally:
        tracer.restore()
        tracemalloc.stop()
    tracer.collect(adopt_parent=run_span["id"])
    shutil.rmtree(spool)
    return wall, runs, tracer.spans


def trace(
    campaigns: Campaigns, label: str
) -> Tuple[Dict[str, float], List[str]]:
    """Untraced, timing-traced and memory-traced campaigns.

    Returns the per-layer metrics and any problems found. Times and
    counts come from the timing pass, allocation peaks from the memory
    pass, dispatch numbers from the untraced campaign's partials.
    """
    workload = campaigns.workload
    fused = workload.backend == "fused"
    partials: List[Any] = []
    untraced_wall, untraced = campaigns.timed(
        on_partial=partials.append if fused else None
    )
    traced_wall, timed_runs, spans = traced_pass(campaigns, memory=False)
    _, memory_runs, memory_spans = traced_pass(campaigns, memory=True)

    problems = []
    if not timed_runs == memory_runs == untraced:
        problems.append("traced statistics differ from untraced ones")
    missing = layers.missing_spans(spans, workload.all_expected_spans)
    if fused and not partials:
        missing.append("fused partials")
    if missing:
        raise SystemExit(
            f"perfbench: {workload.name}: expected spans saw no call: "
            f"{missing}; a layer entry point is no longer wrapped"
        )

    n_runs = campaigns.spec.n_runs
    metrics = layers.layer_metrics(spans, memory_spans, n_runs)
    metrics.update(layers.dispatch_metrics(
        partials, n_runs, workload.workers or 1, untraced_wall
    ))
    metrics["tracing.overhead"] = traced_wall / untraced_wall

    print("\n".join(layers.format_span_table(spans, memory_spans)))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{label}.json").write_text(
        json.dumps({"timing": spans, "memory": memory_spans})
    )
    return metrics, problems


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process the fused pool started.

    Left alone, it exits only after this process has, so the benchmark
    would not have waited for every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--devices", type=int, default=None,
                        help="override the workload's fleet size")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    n_devices = args.devices or workload.n_devices
    scenarios = import_program()
    try:
        campaigns = Campaigns(scenarios, workload, args.seed, n_devices)
        setup_s, problems = set_up(campaigns)
        if args.trace:
            metrics, trace_problems = trace(
                campaigns, f"{workload.name}-seed{args.seed}-n{n_devices}"
            )
            problems += trace_problems
            metrics["runs_failed"] = campaigns.failed
            catalog = layers.PER_LAYER
        else:
            metrics = measure(campaigns, args.seconds)
            metrics["setup_s"] = setup_s
            catalog = layers.END_TO_END
    finally:
        stop_resource_tracker()

    for message in campaigns.failures + problems:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": not campaigns.failures and not problems,
        "attempted": campaigns.attempted,
        "failed": campaigns.failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in catalog
        },
    }
    for metric in catalog:
        label = " (computed)" if metric.computed else ""
        print(f"{metric.name} = {metrics[metric.name]} {metric.unit}{label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
