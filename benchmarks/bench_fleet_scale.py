"""A9 benchmark: fleet generation, the greedy window cover and the
columnar executor at scale.

Times, for growing fleets:

* **cover** — the per-round full re-sweep reference
  (``tests/cover_oracle.py``) vs the incremental sweep
  (``greedy_window_cover``);
* **paper-default cover** — the incremental sweep alone on
  paper-default fleets of 10^4, 10^5 and 10^6 devices (TI 2048, a
  2^21-frame horizon), wall-clock and peak traced memory. The peak is
  asserted (<= 64 MiB at 10^5, <= 512 MiB at 10^6): the short periods
  are folded onto residue histograms, so it no longer grows with
  ``n * horizon / period``. Time is reported, not gated;
* **execute** — the columnar (vectorised, array-of-ledgers) executor on
  the DR-SC plan;
* **paper-default execute** — the executor alone on the paper-default
  DR-SC plans of 10^5 and 10^6 devices: wall-clock, peak traced memory
  and the transient bytes per directive (the peak less the live memory
  before the call and the result's own bytes). The transient is
  asserted (<= 96 B per directive at both sizes);
* **generate** — ``generate_fleet`` alone on a paper-default fleet of
  10^6 devices: its traced peak (asserted <= 90 MiB; ``sample_imsis``
  alone peaks near 68 MiB) and the transient of the phase kernel
  ``v_paging_frame_offset`` on that fleet's columns (the peak less the
  live memory before the call, result included; asserted <= 24 MiB,
  three full-width int64 arrays). CI runs this test and the execute
  bar on their own with ``-k "execute or generate"``.

Before timing means anything the paths must agree: the bench asserts
identical cover selections (same windows, same assignments) at every
size, and — at the smallest size only, where the event engine is cheap
— per-device uptime totals within 1e-9 of the event-driven replay
(``EventDrivenCampaign`` in ``tests/executor_oracle.py``, the
executor's oracle).

Results are persisted as ``BENCH_fleet_scale.json`` (see
``conftest.write_bench_artifact``), one section per test that ran. Tune the reference-vs-incremental
sweep with ``REPRO_BENCH_FLEET_SIZES=1000,10000,...``; the
paper-default sizes are fixed, so their peak-memory bars always run.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest
from conftest import emit, write_bench_artifact
from cover_oracle import reference_window_cover
from executor_oracle import EventDrivenCampaign

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.drx.paging import UE_ID_SPACE, v_paging_frame_offset
from repro.energy.states import StateGroup
from repro.experiments.reporting import Table, render_table
from repro.sim.columnar import execute_columnar
from repro.sim.executor import CampaignExecutor
from repro.setcover.greedy import greedy_window_cover
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import (
    PAPER_DEFAULT_MIXTURE,
    CategoryProfile,
    TrafficMixture,
)

#: Responsive fleet used for the scale sweep: minute-scale eDRX keeps
#: the sweep event list large enough to be a real workload while the
#: search horizon (2 x max cycle) stays bounded.
FLEET_SCALE_MIXTURE = TrafficMixture(
    "fleet-scale-bench",
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

#: Fleet sizes swept (override with REPRO_BENCH_FLEET_SIZES).
DEFAULT_SIZES = (1_000, 10_000, 100_000)


#: Paper-default cover sizes.
COVER_SIZES = (10_000, 100_000, 1_000_000)

#: Peak traced memory bars of the paper-default cover, MiB by fleet size.
COVER_PEAK_MIB = {100_000: 64.0, 1_000_000: 512.0}

#: Paper-default execute sizes.
EXECUTE_SIZES = (100_000, 1_000_000)

#: Bar on the executor's transient bytes per directive: beyond its
#: inputs and its 104 B-per-device result.
EXECUTE_TRANSIENT_BYTES = 96

#: Fleet size of the generate bars.
GENERATE_SIZE = 1_000_000

#: Bar on ``generate_fleet``'s traced peak at ``GENERATE_SIZE``, MiB.
GENERATE_PEAK_MIB = 90.0

#: Bar on ``v_paging_frame_offset``'s transient at ``GENERATE_SIZE``, MiB:
#: three full-width int64 arrays, its result included.
PHASE_TRANSIENT_MIB = 24.0


@pytest.fixture(scope="module")
def artifact() -> dict:
    """``BENCH_fleet_scale.json``'s payload: each test adds its section
    and rewrites the file, so a ``-k`` selection writes what it ran."""
    return {"benchmark": "a9_fleet_scale"}


def _sizes() -> tuple:
    spec = os.environ.get("REPRO_BENCH_FLEET_SIZES")
    if not spec:
        return DEFAULT_SIZES
    return tuple(int(part) for part in spec.split(",") if part.strip())


def _paper_default_cover(n_devices: int) -> dict:
    """Time and trace one paper-default cover with the incremental sweep."""
    fleet = generate_fleet(
        n_devices, PAPER_DEFAULT_MIXTURE, np.random.default_rng(7)
    )
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        cover = greedy_window_cover(
            fleet.phases, fleet.periods, 2048, 0, 2 * int(fleet.max_cycle),
            np.random.default_rng(13),
        )
        cover_s = time.perf_counter() - t0
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return {
        "n_devices": n_devices,
        "n_transmissions": cover.n_groups,
        "cover_incremental_s": cover_s,
        "cover_peak_mib": peak_mib,
    }


def _paper_default_execute(n_devices: int) -> dict:
    """Time and trace one execute of a paper-default DR-SC plan."""
    fleet = generate_fleet(
        n_devices, PAPER_DEFAULT_MIXTURE, np.random.default_rng(7)
    )
    plan = DrScMechanism().plan(
        fleet, PlanningContext(payload_bytes=1_000_000), np.random.default_rng(11)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        result = execute_columnar(fleet, plan)
        execute_s = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    output = sum(
        getattr(result, name).nbytes
        for name in (
            "device", "transmission", "ready_s", "wait_s", "updated_s",
            "seconds", "actual_start_s",
        )
    )
    return {
        "n_devices": n_devices,
        "n_directives": len(plan.columns),
        "execute_s": execute_s,
        "execute_peak_mib": peak / 2**20,
        "result_mib": output / 2**20,
        "execute_transient_bytes_per_directive": (peak - output)
        / len(plan.columns),
    }


def _uptime_totals(result) -> np.ndarray:
    """Per-device (light, connected, sleep) totals, sorted by device."""
    return np.stack(
        [
            result.group_seconds(StateGroup.LIGHT_SLEEP),
            result.group_seconds(StateGroup.CONNECTED),
            result.group_seconds(StateGroup.SLEEP),
        ]
    )


def test_a9_fleet_scale_fast_path(capsys, artifact):
    context = PlanningContext(payload_bytes=1_000_000)
    ti = context.inactivity_timer_frames
    rows = []
    records = []
    sizes = _sizes()
    for n_devices in sizes:
        fleet = generate_fleet(
            n_devices, FLEET_SCALE_MIXTURE, np.random.default_rng(7)
        )
        horizon_end = 2 * int(fleet.max_cycle)
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(11))

        t0 = time.perf_counter()
        cover_ref = reference_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13),
        )
        cover_ref_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cover_fast = greedy_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13),
        )
        cover_fast_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = CampaignExecutor().execute(fleet, plan)
        execute_s = time.perf_counter() - t0

        # Equivalence gates the timing: identical cover selections...
        for column in ("start", "end", "members", "bounds"):
            np.testing.assert_array_equal(
                getattr(cover_ref, column), getattr(cover_fast, column)
            )
        # ...and, at the smallest size, the event-driven oracle's
        # per-device uptime totals within 1e-9.
        if n_devices == min(sizes):
            replayed = EventDrivenCampaign(fleet, plan).run(
                horizon_frames=result.horizon_frames
            )
            np.testing.assert_allclose(
                _uptime_totals(result), _uptime_totals(replayed), atol=1e-9
            )

        speedup = (
            cover_ref_s / cover_fast_s if cover_fast_s > 0 else float("inf")
        )
        rows.append(
            (
                str(n_devices),
                str(cover_fast.n_groups),
                f"{cover_ref_s:.2f}s",
                f"{cover_fast_s:.2f}s",
                f"{speedup:.1f}x",
                "-",
                f"{execute_s:.2f}s",
            )
        )
        records.append(
            {
                "n_devices": n_devices,
                "n_transmissions": cover_fast.n_groups,
                "cover_reference_s": cover_ref_s,
                "cover_incremental_s": cover_fast_s,
                "cover_speedup": speedup,
                "execute_s": execute_s,
            }
        )

    paper_default = [_paper_default_cover(n) for n in COVER_SIZES]
    for record in paper_default:
        rows.append(
            (
                f"{record['n_devices']} (paper-default)",
                str(record["n_transmissions"]),
                "-",
                f"{record['cover_incremental_s']:.2f}s",
                "-",
                f"{record['cover_peak_mib']:.0f} MiB",
                "-",
            )
        )

    artifact.update(
        {
            "mixture": FLEET_SCALE_MIXTURE.name,
            "payload_bytes": 1_000_000,
            "results": records,
            "paper_default_cover": {
                "mixture": PAPER_DEFAULT_MIXTURE.name,
                "window_len": 2048,
                "results": paper_default,
            },
        }
    )
    path = write_bench_artifact("fleet_scale", artifact)
    emit(
        capsys,
        render_table(
            Table(
                title=(
                    "A9 — greedy cover (reference vs incremental) and "
                    "columnar execute wall-clock"
                ),
                headers=(
                    "devices", "tx", "cover ref", "cover inc", "speedup",
                    "inc peak", "execute",
                ),
                rows=tuple(rows),
                notes=(
                    "Cover selections are asserted identical at every "
                    "size and per-device uptime totals match the "
                    "event-driven replay at the smallest size before "
                    "timing is reported. Paper-default rows time the "
                    "incremental cover alone and report its peak traced "
                    f"memory; artifact written to {path}.",
                ),
            )
        ),
    )
    peaks = {r["n_devices"]: r["cover_peak_mib"] for r in paper_default}
    for n_devices, bar in COVER_PEAK_MIB.items():
        assert peaks[n_devices] <= bar, (n_devices, peaks[n_devices], bar)


def test_a9_paper_default_execute_peak(capsys, artifact):
    """The executor's transient memory stays under its per-directive bar."""
    results = [_paper_default_execute(n) for n in EXECUTE_SIZES]
    artifact["paper_default_execute"] = {
        "mixture": PAPER_DEFAULT_MIXTURE.name,
        "mechanism": "dr-sc",
        "payload_bytes": 1_000_000,
        "transient_bytes_bar": EXECUTE_TRANSIENT_BYTES,
        "results": results,
    }
    path = write_bench_artifact("fleet_scale", artifact)
    emit(
        capsys,
        render_table(
            Table(
                title="A9 — columnar execute, paper-default DR-SC plans",
                headers=("devices", "execute", "peak", "result", "transient"),
                rows=tuple(
                    (
                        str(r["n_devices"]),
                        f"{r['execute_s']:.2f}s",
                        f"{r['execute_peak_mib']:.1f} MiB",
                        f"{r['result_mib']:.1f} MiB",
                        f"{r['execute_transient_bytes_per_directive']:.1f} B/dir",
                    )
                    for r in results
                ),
                notes=(
                    "Peak is the traced allocation peak of one unrecorded "
                    "execute_columnar call above the memory live before "
                    "it; transient is that peak less the result's bytes, "
                    f"per directive (bar {EXECUTE_TRANSIENT_BYTES} B); "
                    f"artifact written to {path}.",
                ),
            )
        ),
    )
    for record in results:
        assert (
            record["execute_transient_bytes_per_directive"]
            <= EXECUTE_TRANSIENT_BYTES
        ), record


def _generate_peaks(n_devices: int) -> dict:
    """Trace one paper-default ``generate_fleet`` and one phase kernel
    call on its columns."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        fleet = generate_fleet(
            n_devices, PAPER_DEFAULT_MIXTURE, np.random.default_rng(7)
        )
        generate_s = time.perf_counter() - t0
        generate_peak = tracemalloc.get_traced_memory()[1]
        ue_ids = fleet.imsis % UE_ID_SPACE
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        phases = v_paging_frame_offset(ue_ids, fleet.periods, fleet.nb)
        phase_transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(phases, fleet.phases)
    return {
        "n_devices": n_devices,
        "fleet_mib": fleet.nbytes / 2**20,
        "generate_s": generate_s,
        "generate_peak_mib": generate_peak / 2**20,
        "phase_transient_mib": phase_transient / 2**20,
    }


def test_a9_generate_peak(capsys, artifact):
    """``generate_fleet`` and its phase kernel stay under their memory
    bars at 10^6 devices."""
    record = _generate_peaks(GENERATE_SIZE)
    artifact["paper_default_generate"] = {
        "mixture": PAPER_DEFAULT_MIXTURE.name,
        "generate_peak_bar_mib": GENERATE_PEAK_MIB,
        "phase_transient_bar_mib": PHASE_TRANSIENT_MIB,
        "result": record,
    }
    path = write_bench_artifact("fleet_scale", artifact)
    emit(
        capsys,
        render_table(
            Table(
                title="A9 — generate_fleet, paper-default mixture",
                headers=("devices", "fleet", "generate", "peak", "phase kernel"),
                rows=(
                    (
                        str(record["n_devices"]),
                        f"{record['fleet_mib']:.1f} MiB",
                        f"{record['generate_s']:.2f}s",
                        f"{record['generate_peak_mib']:.1f} MiB",
                        f"{record['phase_transient_mib']:.1f} MiB",
                    ),
                ),
                notes=(
                    "Peak is generate_fleet's traced allocation peak (bar "
                    f"{GENERATE_PEAK_MIB:.0f} MiB); the phase kernel is "
                    "v_paging_frame_offset's traced peak above the memory "
                    f"live before it (bar {PHASE_TRANSIENT_MIB:.0f} MiB); "
                    f"artifact written to {path}.",
                ),
            )
        ),
    )
    assert record["generate_peak_mib"] <= GENERATE_PEAK_MIB, record
    assert record["phase_transient_mib"] <= PHASE_TRANSIENT_MIB, record
