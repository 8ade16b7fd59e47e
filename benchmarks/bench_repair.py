"""Repair-layer benchmark: one repair-round call per lossy regime.

Runs :func:`~repro.multicast.reliability.simulate_repair_rounds` with
the image and reliability settings of the dense-urban (1 % segment
loss) and lossy-link-repair (15 %) scenarios, both a 1 MB image, on a
fleet of ``REPRO_BENCH_REPAIR_DEVICES`` devices (default 10^4; 10^5
is the ROADMAP's reference size). Each call is timed (best of
``REPEATS``) and then re-run under ``tracemalloc`` for its allocation
peak. The calls run their row chunks on as many threads as the kernel
picks for this host (recorded); each regime is also timed with the
thread count forced to one, and the two outcomes must be equal. The
dense-rounds wall is the same call capped at the regime's dense
(span-drawn) rounds, so the rest of ``wall_s`` is the kernel rounds';
the kernel's per-thread batch size is recorded with it.

The bar asserted is the chunk-major design's memory bound: a traced
peak of at most 8 MiB per call at any fleet size, where the dense
n x segments loss matrix needed 2.3 GB at 10^5 devices. Results are
persisted as ``BENCH_repair.json``.
"""

from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc
from typing import Any, Dict
from unittest import mock

import numpy as np
from conftest import emit, write_bench_artifact

from repro.experiments.reporting import Table, render_table
from repro.multicast import reliability
from repro.multicast.reliability import simulate_repair_rounds
from repro.scenarios import scenario

#: Traced allocation peak allowed per call (bytes), at any fleet size.
PEAK_BAR_BYTES = 8 * 2**20
REPEATS = 3
SCENARIOS = ("dense-urban", "lossy-link-repair")
SEED = 2018


def _best_of(call) -> Any:
    """``call``'s outcome and its best wall time over ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        outcome = call()
        best = min(best, time.perf_counter() - t0)
    return outcome, best


def _measure(name: str, n_devices: int) -> Dict[str, float]:
    spec = scenario(name)
    image, config = spec.image(), spec.reliability()

    def call():
        return simulate_repair_rounds(
            image, n_devices, config, np.random.default_rng(SEED)
        )

    threads = reliability._layout(
        n_devices, image.segment_count(config.segment_bytes)
    )[0]
    outcome, wall = _best_of(call)
    with mock.patch.object(reliability, "_thread_count", lambda n_chunks: 1):
        single, single_wall = _best_of(call)
    assert single == outcome, f"{name}: one thread disagrees with {threads}"
    dense_rounds = reliability._dense_rounds(config)
    dense_config = dataclasses.replace(config, max_rounds=dense_rounds)
    _, dense_wall = _best_of(
        lambda: simulate_repair_rounds(
            image, n_devices, dense_config, np.random.default_rng(SEED)
        )
    )
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "segments": outcome.base_segments,
        "loss": config.segment_loss_probability,
        "rounds": outcome.rounds,
        "segments_sent": outcome.segments_sent,
        "threads": threads,
        "wall_s": wall,
        "single_thread_wall_s": single_wall,
        "kernel_batch": reliability._batch_size(threads),
        "dense_rounds": dense_rounds,
        "dense_rounds_wall_s": dense_wall,
        "peak_mb": peak / 2**20,
    }


def test_repair_rounds_per_regime(capsys):
    n_devices = int(os.environ.get("REPRO_BENCH_REPAIR_DEVICES") or 10_000)
    records = {name: _measure(name, n_devices) for name in SCENARIOS}
    path = write_bench_artifact(
        "repair",
        {
            "benchmark": "repair_rounds_per_regime",
            "n_devices": n_devices,
            "repeats": REPEATS,
            "peak_bar_mb": PEAK_BAR_BYTES / 2**20,
            "scenarios": records,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title=f"Repair rounds at {n_devices} devices (best of {REPEATS})",
                headers=(
                    "scenario",
                    "loss",
                    "rounds",
                    "threads x batch",
                    "wall",
                    "1-thread wall",
                    "dense rounds",
                    "traced peak",
                ),
                rows=tuple(
                    (
                        name,
                        f"{record['loss']:.2f}",
                        str(record["rounds"]),
                        f"{record['threads']} x {record['kernel_batch']}",
                        f"{record['wall_s'] * 1e3:.1f} ms",
                        f"{record['single_thread_wall_s'] * 1e3:.1f} ms",
                        f"{record['dense_rounds']}: "
                        f"{record['dense_rounds_wall_s'] * 1e3:.1f} ms",
                        f"{record['peak_mb']:.2f} MiB",
                    )
                    for name, record in records.items()
                ),
                notes=(
                    "threads x batch: the row-chunk threads and the most "
                    "pairs each draws per kernel batch.",
                    "dense rounds: the span-drawn rounds and the wall of "
                    "the call capped there; the kernel rounds follow.",
                    f"traced peak against {PEAK_BAR_BYTES / 2**20:.0f} MiB per "
                    f"call; artifact written to {path}.",
                ),
            )
        ),
    )
    over = {
        name: f"{record['peak_mb']:.2f} MiB"
        for name, record in records.items()
        if record["peak_mb"] * 2**20 > PEAK_BAR_BYTES
    }
    assert not over, (
        f"repair rounds over the {PEAK_BAR_BYTES / 2**20:.0f} MiB traced "
        f"peak at {n_devices} devices: {over}"
    )
