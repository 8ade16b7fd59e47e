"""A10 benchmark: the fused (run x cell) work queue vs serial.

Times one multi-cell scenario campaign (default: 10 runs x 8 cells)
through both drains of the same task graph:

* **serial** — the oracle: every (run, cell) task drained in this
  process, no pool;
* **fused** — ``run_scenario(backend="fused")``: every (run, cell)
  task drains through one work queue on a process pool with no
  inter-run barrier.

Equivalence gates the timing: the fused metric arrays must be
bit-identical to serial at every worker count and dispatch grain. The
single-worker chunk sweep asserts the dispatch grain keeps fused at one
worker within 5 % of serial whenever the serial run is long enough to
measure; the multi-worker ratio is recorded to ``BENCH_fused.json``.

The 10^6-device regime is asserted **un-gated** in two pieces:

* ``test_a10_megafleet_zero_copy_rss`` — generates a million-device
  fleet columnar, publishes it to one shared-memory segment, and has
  several worker processes attach and touch every column. Each
  worker's RSS growth must stay below 1.5x the single-copy fleet
  footprint and its private-dirty share of the mapping must be zero —
  the memory proof that all workers share one physical fleet.
* ``test_a10_megafleet_regime_completes`` — one full fused campaign,
  streaming per-cell partials as they land. Sized by
  ``REPRO_BENCH_FUSED_CAMPAIGN_DEVICES`` (tier-1 default keeps the
  suite fast) because a full 10^6 *campaign* is ~10 minutes of
  single-core simulation — the 10^6 memory regime above is what must
  hold everywhere.

Tune with ``REPRO_BENCH_FUSED_DEVICES`` / ``REPRO_BENCH_FUSED_RUNS`` /
``REPRO_BENCH_FUSED_CELLS`` / ``REPRO_BENCH_FUSED_WORKERS`` /
``REPRO_BENCH_FUSED_MEGA_DEVICES`` /
``REPRO_BENCH_FUSED_CAMPAIGN_DEVICES``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest
from conftest import _env_int, emit, write_bench_artifact

from repro.devices import Fleet, SharedFleet
from repro.devices.arrays import fleet_nbytes
from repro.experiments.reporting import Table, render_table
from repro.multicast.coordination import MultiCellSpec, attach_devices
from repro.scenarios import run_scenario, scenario
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

#: Serial wall-clock below which ratios are recorded but not asserted.
MIN_ASSERTED_SERIAL_S = 1.0

#: The single-worker bar: with the dispatch grain right-sized, fused at
#: 1 worker must stay within 5 % of serial — the regime where the old
#: per-item submission quietly lost. Asserted whenever the serial run
#: is long enough to measure, regardless of core count.
MIN_SINGLE_WORKER_RATIO = 0.95

#: The dispatch grains the single-worker sweep times (None = auto).
CHUNK_SWEEP = (1, 8, None)


def _bench_spec():
    return scenario("city-rollout").with_overrides(
        n_devices=_env_int("REPRO_BENCH_FUSED_DEVICES", 400),
        n_runs=_env_int("REPRO_BENCH_FUSED_RUNS", 10),
        cells=MultiCellSpec(
            n_cells=_env_int("REPRO_BENCH_FUSED_CELLS", 8)
        ),
    )


def _workers() -> int:
    return _env_int(
        "REPRO_BENCH_FUSED_WORKERS", min(4, os.cpu_count() or 1)
    )


def test_a10_fused_vs_serial(capsys):
    spec = _bench_spec()
    workers = _workers()

    t0 = time.perf_counter()
    serial = run_scenario(spec)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    fused = run_scenario(spec, backend="fused", workers=workers)
    fused_s = time.perf_counter() - t0

    # Equivalence gates the timing: fused == serial bit for bit.
    assert set(fused) == set(serial)
    for metric in serial:
        np.testing.assert_array_equal(
            serial[metric].values, fused[metric].values, err_msg=metric
        )

    # Chunk-size sweep at 1 worker: the dispatch-grain regime where the
    # per-item submission used to lose to serial outright. Every grain
    # must stay bit-identical; the best grain carries the assertion.
    sweep = []
    for chunk_size in CHUNK_SWEEP:
        t0 = time.perf_counter()
        chunked = run_scenario(
            spec, backend="fused", workers=1, chunk_size=chunk_size
        )
        chunk_s = time.perf_counter() - t0
        for metric in serial:
            np.testing.assert_array_equal(
                serial[metric].values,
                chunked[metric].values,
                err_msg=f"chunk_size={chunk_size}: {metric}",
            )
        sweep.append(
            {
                "chunk_size": chunk_size,
                "fused_1w_s": chunk_s,
                "over_serial": serial_s / chunk_s if chunk_s > 0 else float("inf"),
            }
        )
    best = max(sweep, key=lambda row: row["over_serial"])

    cores = os.cpu_count() or 1
    over_serial = serial_s / fused_s if fused_s > 0 else float("inf")
    single_worker_asserted = serial_s >= MIN_ASSERTED_SERIAL_S
    if single_worker_asserted:
        assert best["over_serial"] >= MIN_SINGLE_WORKER_RATIO, (
            f"fused at 1 worker reaches only "
            f"{best['over_serial']:.2f}x serial at its best grain "
            f"(chunk_size={best['chunk_size']}, "
            f"{best['fused_1w_s']:.2f}s vs serial {serial_s:.2f}s) — "
            f"below the {MIN_SINGLE_WORKER_RATIO} bar; the dispatch "
            f"grain no longer amortises the per-task IPC round trip"
        )

    path = write_bench_artifact(
        "fused",
        {
            "benchmark": "a10_fused_vs_serial",
            "scenario": spec.name,
            "n_devices": spec.n_devices,
            "n_runs": spec.n_runs,
            "n_cells": spec.cells.n_cells,
            "workers": workers,
            "cpu_count": cores,
            "serial_s": serial_s,
            "fused_s": fused_s,
            "fused_over_serial": over_serial,
            "chunk_sweep_1_worker": sweep,
            "best_chunk_size": best["chunk_size"],
            "fused_1w_over_serial": best["over_serial"],
            "single_worker_asserted": single_worker_asserted,
            "min_single_worker_ratio": MIN_SINGLE_WORKER_RATIO,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title=(
                    "A10 — one multi-cell campaign: serial vs fused "
                    "work queue"
                ),
                headers=("path", "wall-clock", "vs fused"),
                rows=(
                    ("serial", f"{serial_s:.2f}s", f"{over_serial:.2f}x"),
                    ("fused", f"{fused_s:.2f}s", "1.00x"),
                ),
                notes=(
                    f"{spec.n_runs} runs x {spec.cells.n_cells} cells x "
                    f"{spec.n_devices} devices, {workers} workers on "
                    f"{cores} cores; metric arrays asserted bit-identical "
                    f"before timing; artifact written to {path}.",
                    f"1-worker chunk sweep: best grain "
                    f"{best['chunk_size']} reaches "
                    f"{best['over_serial']:.2f}x serial (bar >= "
                    f"{MIN_SINGLE_WORKER_RATIO}"
                    + (
                        ", asserted"
                        if single_worker_asserted
                        else ", not asserted at this size"
                    )
                    + ").",
                ),
            )
        ),
    )


def _vm_rss_kb() -> int:
    """This process's current resident set (VmRSS, kB); 0 off-Linux."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shm_private_dirty_kb(segment_name: str) -> int:
    """Private_Dirty kB of this process's mapping of the segment.

    Read-only attaches never dirty private pages: every resident page
    of the mapping is shared with the other workers, which is the
    per-page accounting behind the 1.5x RSS ceiling.
    """
    private = 0
    in_segment = False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            # Mapping headers look like "55..-55.. rw-s .. /path"; every
            # header resets the cursor so anonymous mappings that follow
            # the segment are not misattributed to it.
            head = line.split(" ", 1)[0]
            if "-" in head and ":" not in head:
                in_segment = segment_name in line
            elif in_segment and line.startswith("Private_Dirty:"):
                private += int(line.split()[1])
    return private


def _touch_shared_fleet(descriptor, cell_id, queue):
    """Worker body: attach, touch every column, slice one cell.

    Reports its RSS growth across the full attach-and-read cycle plus
    the private-dirty share of the fleet mapping — the two numbers the
    parent asserts the zero-copy ceiling from.
    """
    rss_before = _vm_rss_kb()
    shared = SharedFleet.attach(descriptor, context="bench-megafleet")
    checksum = int(shared.arrays.imsis.sum())
    touched = 0.0
    for _, column in shared.arrays.columns():
        touched += float(np.nansum(column))
    indices = np.flatnonzero(shared.extra("attachments") == cell_id)
    cell_fleet = Fleet.from_arrays(shared.arrays.take(indices), trusted=True)
    queue.put(
        {
            "rss_delta_kb": _vm_rss_kb() - rss_before,
            "private_dirty_kb": _shm_private_dirty_kb(descriptor.name),
            "checksum": checksum,
            "cell_devices": len(cell_fleet),
        }
    )
    shared.close()


def test_a10_megafleet_zero_copy_rss(capsys):
    """10^6 devices, one physical fleet: the zero-copy memory proof.

    Generates a million-device fleet columnar-first, publishes it to
    one shared segment, and has several worker processes attach and
    read all of it. Asserts, per worker, peak RSS growth below 1.5x
    the single-copy fleet footprint (an object-fleet unpickle costs
    several times that; a pickled-copy path costs ~2x) and zero
    private-dirty pages in the mapping — so N workers cost one fleet,
    not N.
    """
    if not os.path.exists("/proc/self/smaps"):
        pytest.skip("needs /proc smaps accounting (Linux)")
    n_devices = _env_int("REPRO_BENCH_FUSED_MEGA_DEVICES", 1_000_000)
    n_cells = _env_int("REPRO_BENCH_FUSED_MEGA_CELLS", 8)
    n_attachers = _env_int("REPRO_BENCH_FUSED_MEGA_ATTACHERS", 3)
    rng = np.random.default_rng(20180702)

    staged = SharedFleet.allocate(n_devices, extras=("attachments",))
    t0 = time.perf_counter()
    fleet = generate_fleet(
        n_devices,
        MODERATE_EDRX_MIXTURE,
        rng,
        out=staged.column_buffers(),
    )
    generate_s = time.perf_counter() - t0
    # The fleet's columns are the segment's own buffers now, so take
    # the reference checksum before the segment is unlinked below.
    expected_checksum = int(fleet.arrays.imsis.sum())
    attachments = attach_devices(
        len(fleet), MultiCellSpec(n_cells=n_cells), rng
    )

    t0 = time.perf_counter()
    np.copyto(
        staged.extra_buffer("attachments"),
        np.asarray(attachments, dtype=np.int64),
    )
    shared = staged.seal(fleet.arrays)
    publish_s = time.perf_counter() - t0
    single_copy = shared.descriptor.nbytes
    rss_ceiling_kb = int(1.5 * single_copy) // 1024

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    t0 = time.perf_counter()
    procs = [
        ctx.Process(
            target=_touch_shared_fleet,
            args=(shared.descriptor, cell_id % n_cells, queue),
        )
        for cell_id in range(n_attachers)
    ]
    try:
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=120)
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        attach_s = time.perf_counter() - t0
        shared.unlink()
        shared.close()

    assert not os.path.exists(f"/dev/shm/{shared.descriptor.name}")
    assert len(reports) == n_attachers
    for report in reports:
        assert report["checksum"] == expected_checksum
        assert report["cell_devices"] > 0
        assert report["rss_delta_kb"] < rss_ceiling_kb, (
            f"worker RSS grew {report['rss_delta_kb']} kB attaching a "
            f"{n_devices}-device fleet — over the 1.5x single-copy "
            f"ceiling of {rss_ceiling_kb} kB, so the mapping is not "
            f"shared"
        )
        assert report["private_dirty_kb"] == 0, (
            "read-only fleet mapping dirtied private pages: "
            f"{report['private_dirty_kb']} kB"
        )

    path = write_bench_artifact(
        "fused_megafleet",
        {
            "benchmark": "a10_megafleet_zero_copy",
            "n_devices": n_devices,
            "n_cells": n_cells,
            "n_attachers": n_attachers,
            "fleet_nbytes": fleet_nbytes(n_devices),
            "segment_nbytes": single_copy,
            "generate_s": generate_s,
            "publish_s": publish_s,
            "attach_and_touch_s": attach_s,
            "worker_rss_delta_kb": [
                r["rss_delta_kb"] for r in reports
            ],
            "rss_ceiling_kb": rss_ceiling_kb,
            "private_dirty_kb": [
                r["private_dirty_kb"] for r in reports
            ],
        },
    )
    emit(
        capsys,
        f"10^6 zero-copy regime: {n_devices} devices generated in "
        f"{generate_s:.2f}s, published {single_copy >> 20} MiB in "
        f"{publish_s:.2f}s; {n_attachers} workers attached at "
        f"{max(r['rss_delta_kb'] for r in reports)} kB peak delta "
        f"(ceiling {rss_ceiling_kb} kB); artifact {path}",
    )


def test_a10_megafleet_regime_completes(capsys):
    """The mega-fleet campaign regime: one fused run must complete.

    Not a speedup measurement — an existence proof that the fused
    queue (fan-out over one shared fleet, streamed partials,
    reduction, segment unlink) holds together at scale with
    deliveries intact. ``REPRO_BENCH_FUSED_CAMPAIGN_DEVICES=1000000``
    runs the paper-extrapolated fleet wholesale (~10 minutes of
    single-core campaign simulation); the tier-1 default proves the
    same machinery at a suite-friendly size.
    """
    n_devices = _env_int("REPRO_BENCH_FUSED_CAMPAIGN_DEVICES", 5_000)
    spec = scenario("city-rollout").with_overrides(
        n_devices=n_devices,
        n_runs=1,
        cells=MultiCellSpec(
            n_cells=_env_int("REPRO_BENCH_FUSED_MEGA_CELLS", 8)
        ),
    )
    partials = []
    t0 = time.perf_counter()
    stats = run_scenario(
        spec,
        backend="fused",
        workers=_workers(),
        on_partial=partials.append,
    )
    elapsed = time.perf_counter() - t0
    assert stats["delivered_fraction"].min > 0.0
    assert stats["n_cells"].max <= spec.cells.n_cells
    cell_partials = [p for p in partials if p.kind == "sub"]
    assert len(cell_partials) == spec.cells.n_cells
    peak_worker_rss_kb = max(
        p.value.worker_rss_kb for p in cell_partials
    )
    path = write_bench_artifact(
        "fused_megafleet_campaign",
        {
            "benchmark": "a10_megafleet_campaign",
            "n_devices": spec.n_devices,
            "n_cells": spec.cells.n_cells,
            "wall_clock_s": elapsed,
            "streamed_partials": len(partials),
            "peak_worker_rss_kb": peak_worker_rss_kb,
            "delivered_fraction_min": float(
                stats["delivered_fraction"].min
            ),
        },
    )
    emit(
        capsys,
        f"mega-fleet fused campaign ({n_devices} devices): "
        f"{elapsed:.1f}s, {len(cell_partials)} cells streamed, peak "
        f"worker RSS {peak_worker_rss_kb} kB; artifact {path}",
    )
