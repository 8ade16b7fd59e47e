"""Event-log recording overhead benchmark.

The columnar event log rides along the fleet fast path: the executor's
emit calls only buffer references to columns it computed anyway, and
the sorted row array materialises lazily on the log's first read. So a
*recorded* run must cost within 10% of a bare one on the
``bench_fleet_scale`` workload (incremental cover + columnar execute)
at 10^5 devices — asserted here. The deferred materialisation cost is
timed and reported separately, not hidden. Bare and recorded reps
alternate and keep only their times, so no rep runs while another's
result or log is held.

Correctness gates the timing: one more recorded run's log must
STRICT-replay back into a result bit-identical to the live one.

Results are persisted as ``BENCH_eventlog.json`` (see
``conftest.write_bench_artifact``). Tune with
``REPRO_BENCH_EVENTLOG_SIZES=1000,10000,...`` — the overhead assertion
only applies to sizes >= 100000, so CI can run a scaled-down sweep.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import emit, write_bench_artifact

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.experiments.reporting import Table, render_table
from repro.setcover.greedy import greedy_window_cover
from repro.sim.eventlog import EventLogRecorder, compare_results, replay_strict
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet

from bench_fleet_scale import FLEET_SCALE_MIXTURE

#: Fleet sizes swept (override with REPRO_BENCH_EVENTLOG_SIZES).
DEFAULT_SIZES = (10_000, 100_000)

#: The acceptance bar: recording overhead at this size and above.
ASSERT_OVERHEAD_FROM = 100_000
MAX_OVERHEAD = 0.10

#: Timing repetitions per size (the minimum is reported).
REPS = 3


def _sizes() -> tuple:
    spec = os.environ.get("REPRO_BENCH_EVENTLOG_SIZES")
    if not spec:
        return DEFAULT_SIZES
    return tuple(int(part) for part in spec.split(",") if part.strip())


def test_eventlog_recording_overhead(capsys):
    context = PlanningContext(payload_bytes=1_000_000)
    ti = context.inactivity_timer_frames
    executor = CampaignExecutor()
    rows = []
    records = []
    for n_devices in _sizes():
        fleet = generate_fleet(
            n_devices, FLEET_SCALE_MIXTURE, np.random.default_rng(7)
        )
        horizon_end = 2 * int(fleet.max_cycle)
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(11))
        executor.execute(fleet, plan)  # warm the caches once per size

        def plan_and_execute(recorder=None):
            greedy_window_cover(
                fleet.phases, fleet.periods, ti, 0, horizon_end,
                np.random.default_rng(13),
            )
            result = executor.execute(fleet, plan, recorder=recorder)
            log = None if recorder is None else recorder.finalize(cell=0)
            return result, log

        bare, recording = [], []
        for _ in range(REPS):
            bare.append(_timed(plan_and_execute))
            recording.append(_timed(plan_and_execute, EventLogRecorder()))
        bare_s, recorded_s = min(bare), min(recording)
        recorded, log = plan_and_execute(EventLogRecorder())

        # The deferred cost: expanding + canonically sorting the rows.
        t0 = time.perf_counter()
        n_rows = log.events.size
        materialise_s = time.perf_counter() - t0

        # Correctness gates the timing: the log is a faithful witness.
        assert compare_results(recorded, replay_strict(log)) == []
        assert n_rows >= 3 * n_devices  # PO + READY + DONE at least

        overhead = (recorded_s - bare_s) / bare_s if bare_s > 0 else 0.0
        rows.append(
            (
                str(n_devices),
                str(log.n_events),
                f"{bare_s:.3f}s",
                f"{recorded_s:.3f}s",
                f"{overhead * 100:+.1f}%",
                f"{materialise_s:.3f}s",
            )
        )
        records.append(
            {
                "n_devices": n_devices,
                "n_events": log.n_events,
                "bare_s": bare_s,
                "recorded_s": recorded_s,
                "overhead": overhead,
                "materialise_s": materialise_s,
            }
        )
        if n_devices >= ASSERT_OVERHEAD_FROM:
            assert overhead <= MAX_OVERHEAD, (
                f"recording overhead {overhead * 100:.1f}% at {n_devices} "
                f"devices (bare {bare_s:.3f}s, recording {recorded_s:.3f}s)"
            )

    path = write_bench_artifact(
        "eventlog",
        {
            "benchmark": "eventlog_recording_overhead",
            "mixture": FLEET_SCALE_MIXTURE.name,
            "payload_bytes": 1_000_000,
            "max_overhead": MAX_OVERHEAD,
            "results": records,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title="Event-log recording overhead on the fleet-scale workload",
                headers=(
                    "devices", "events", "bare", "recording", "overhead",
                    "materialise",
                ),
                rows=tuple(rows),
                notes=(
                    "bare/recording time incremental cover + columnar "
                    "execute + log sealing; 'materialise' is the deferred "
                    "expand-and-sort on first log read (reported, not part "
                    "of the overhead bar). Each recorded log is "
                    "STRICT-replayed and asserted bit-identical to the "
                    f"live result; artifact written to {path}.",
                ),
            )
        ),
    )


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    out = fn(*args)
    seconds = time.perf_counter() - t0
    del out  # released before the next rep, outside the timed span
    return seconds
