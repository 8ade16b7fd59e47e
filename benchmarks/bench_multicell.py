"""A10 benchmark: city-scale multi-cell campaign coordination.

Exercises the multi-cell subsystem at city scale (default: 1e5 devices
across 32 cells):

* **partition** — the vectorised one-argsort ``partition_fleet`` vs the
  original O(n_cells x n_devices) per-cell scan with full per-cell
  fleet reconstruction (``tests/fleet_oracle.py``). The cells must be
  identical; at 1e5 devices the vectorised path must be >=10x faster.
* **rollout** — one recorded run of a multi-cell scenario spec (the
  spec the ``multicell`` verb builds) drained serial (in-process) and
  fused (process pool). The metric dicts must be equal and the cell
  event logs identical; both wall-clocks are recorded (the pool only
  wins when real cores exist and per-cell compute dominates).

Results are persisted as ``BENCH_multicell.json`` (see
``conftest.write_bench_artifact``). Tune with
``REPRO_BENCH_MULTICELL_DEVICES`` / ``REPRO_BENCH_MULTICELL_CELLS`` /
``REPRO_BENCH_MULTICELL_WORKERS`` — the >=10x assertion only applies
at >= 100000 devices, so CI can run a scaled-down sweep.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import emit, write_bench_artifact
from fleet_oracle import partition_fleet_reference

from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.experiments.reporting import Table, render_table
from repro.multicast.coordination import MultiCellSpec, partition_fleet
from repro.scenarios import ScenarioSpec
from repro.scenarios.runner import scenario_work_items
from repro.sim.dispatch import drain
from repro.sim.eventlog import diff_runlogs
from repro.timebase import frames_to_seconds
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import CategoryProfile, TrafficMixture

#: Responsive fleet (minute-scale eDRX) so per-cell planning horizons
#: stay bounded while the cover instances remain real workloads.
MULTICELL_MIXTURE = TrafficMixture(
    "multicell-bench",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                DrxCycle.from_seconds(81.92): 0.5,
                DrxCycle.from_seconds(163.84): 0.5,
            },
        ),
    },
)

#: The acceptance bar: partition speedup at this fleet size and up.
ASSERT_SPEEDUP_FROM = 100_000
MIN_SPEEDUP = 10.0


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _assert_cells_identical(reference, fast) -> None:
    assert set(reference) == set(fast)
    for cell_id in reference:
        assert reference[cell_id] == fast[cell_id]


def _recorded_run(spec: ScenarioSpec, backend: str, workers: int):
    """Drain ``spec``'s one recorded run on ``backend``; (output, s)."""
    t0 = time.perf_counter()
    (output,) = drain(
        scenario_work_items(spec, spec.seed, 1), backend, workers=workers
    )
    return output, time.perf_counter() - t0


def test_a10_multicell_city_campaign(capsys):
    n_devices = _env_int("REPRO_BENCH_MULTICELL_DEVICES", 100_000)
    n_cells = _env_int("REPRO_BENCH_MULTICELL_CELLS", 32)
    workers = _env_int(
        "REPRO_BENCH_MULTICELL_WORKERS", min(8, os.cpu_count() or 1)
    )
    fleet = generate_fleet(
        n_devices, MULTICELL_MIXTURE, np.random.default_rng(7)
    )

    # Partition: the vectorised path must reproduce the reference cells
    # exactly before its timing means anything.
    t0 = time.perf_counter()
    cells_ref = partition_fleet_reference(
        fleet, n_cells, np.random.default_rng(3)
    )
    partition_ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cells = partition_fleet(fleet, n_cells, np.random.default_rng(3))
    partition_fast_s = time.perf_counter() - t0
    _assert_cells_identical(cells_ref, cells)
    partition_speedup = (
        partition_ref_s / partition_fast_s
        if partition_fast_s > 0
        else float("inf")
    )
    if n_devices >= ASSERT_SPEEDUP_FROM:
        assert partition_speedup >= MIN_SPEEDUP, (
            f"vectorised partition only {partition_speedup:.1f}x at "
            f"{n_devices} devices (reference {partition_ref_s:.2f}s, "
            f"vectorised {partition_fast_s:.3f}s)"
        )

    # Rollout: the same recorded run drained serial and fused must give
    # equal metrics and event-identical cell logs.
    spec = ScenarioSpec(
        name="multicell-bench",
        n_devices=n_devices,
        mixture="short-edrx",
        payload_bytes=1_000_000,
        cells=MultiCellSpec(n_cells=n_cells),
        n_runs=1,
        seed=42,
        record_events=True,
    )
    serial, serial_s = _recorded_run(spec, "serial", workers)
    fused, fused_s = _recorded_run(spec, "fused", workers)
    assert serial.metrics == fused.metrics
    assert diff_runlogs(serial.runlog, fused.runlog).is_empty, (
        "cell event logs differ between serial and fused backends"
    )
    populated = len(serial.runlog.cells)
    transmissions = int(serial.metrics["transmissions"])
    duration_s = frames_to_seconds(max(
        int(log.meta["horizon_frames"])
        for log in serial.runlog.cells.values()
    ))

    path = write_bench_artifact(
        "multicell",
        {
            "benchmark": "a10_multicell_city_campaign",
            "n_devices": n_devices,
            "n_cells": n_cells,
            "workers": workers,
            "payload_bytes": spec.payload_bytes,
            "partition_reference_s": partition_ref_s,
            "partition_vectorised_s": partition_fast_s,
            "partition_speedup": partition_speedup,
            "rollout_serial_s": serial_s,
            "rollout_fused_s": fused_s,
            "total_transmissions": transmissions,
            "segments_sent": serial.metrics["segments_sent"],
            "campaign_duration_s": duration_s,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title=(
                    f"A10 — multi-cell campaign: {n_devices} devices x "
                    f"{populated} cells"
                ),
                headers=("stage", "reference/serial", "fast/fused", "note"),
                rows=(
                    (
                        "partition",
                        f"{partition_ref_s:.2f}s",
                        f"{partition_fast_s:.3f}s",
                        f"{partition_speedup:.1f}x (>= {MIN_SPEEDUP:.0f}x "
                        f"required at {ASSERT_SPEEDUP_FROM}+)",
                    ),
                    (
                        "rollout",
                        f"{serial_s:.2f}s",
                        f"{fused_s:.2f}s",
                        f"event-identical cell logs, {workers} workers",
                    ),
                ),
                notes=(
                    f"{transmissions} transmissions across "
                    f"{populated} cells; campaign duration "
                    f"{duration_s:.0f}s simulated; "
                    f"artifact written to {path}.",
                ),
            )
        ),
    )
