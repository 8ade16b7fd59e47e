"""A10 benchmark: city-scale multi-cell campaign coordination.

Exercises the multi-cell subsystem at city scale (default: 1e5 devices
across 32 cells):

* **partition** — the vectorised one-argsort ``partition_fleet`` vs the
  original O(n_cells x n_devices) per-cell scan with full per-cell
  fleet reconstruction (``method="reference"``). The cells must be
  identical; at 1e5 devices the vectorised path must be >=10x faster.
* **rollout** — the coordinated campaign through the serial (in-process)
  and the fused (process-pool) backends with per-cell ``SeedSequence``
  child RNGs. The per-cell plans and results must be bit-identical;
  both wall-clocks are recorded (the pool only wins when real cores
  exist and per-cell compute dominates the fleet-pickling cost).

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

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.experiments.reporting import Table, render_table
from repro.multicast.coordination import (
    CoordinationEntity,
    cells_bit_identical,
    partition_fleet,
)
from repro.multicast.payload import FirmwareImage
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
        assert reference[cell_id].devices == fast[cell_id].devices
        np.testing.assert_array_equal(
            reference[cell_id].phases, fast[cell_id].phases
        )


def _assert_reports_bit_identical(serial, fused) -> None:
    assert len(serial.campaigns) == len(fused.campaigns)
    for a, b in zip(serial.campaigns, fused.campaigns):
        assert cells_bit_identical(a, b), (
            f"cell {a.cell_id} differs between serial and fused backends"
        )


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
    cells_ref = partition_fleet(
        fleet, n_cells, np.random.default_rng(3), method="reference"
    )
    partition_ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cells = partition_fleet(
        fleet, n_cells, np.random.default_rng(3), method="vectorised"
    )
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

    # Rollout: serial and fused per-cell campaigns must be
    # bit-identical for the same root seed.
    image = FirmwareImage(
        name="city-fw", version="1.0.0", size_bytes=1_000_000
    )
    context = PlanningContext(payload_bytes=image.size_bytes)
    entity = CoordinationEntity(DrScMechanism())

    t0 = time.perf_counter()
    serial = entity.rollout(cells, image, context, seed=42)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fused = entity.rollout(
        cells, image, context, seed=42, backend="fused", workers=workers
    )
    fused_s = time.perf_counter() - t0
    _assert_reports_bit_identical(serial, fused)

    path = write_bench_artifact(
        "multicell",
        {
            "benchmark": "a10_multicell_city_campaign",
            "n_devices": n_devices,
            "n_cells": n_cells,
            "workers": workers,
            "payload_bytes": image.size_bytes,
            "partition_reference_s": partition_ref_s,
            "partition_vectorised_s": partition_fast_s,
            "partition_speedup": partition_speedup,
            "rollout_serial_s": serial_s,
            "rollout_fused_s": fused_s,
            "total_transmissions": serial.total_transmissions,
            "campaign_duration_s": serial.campaign_duration_s,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title=(
                    f"A10 — multi-cell campaign: {n_devices} devices x "
                    f"{serial.n_cells} cells"
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
                        f"bit-identical per cell, {workers} workers",
                    ),
                ),
                notes=(
                    f"{serial.total_transmissions} transmissions across "
                    f"{serial.n_cells} cells; campaign duration "
                    f"{serial.campaign_duration_s:.0f}s simulated; "
                    f"artifact written to {path}.",
                ),
            )
        ),
    )
