"""A9 benchmark: the greedy window cover and the columnar executor at scale.

Times, for growing fleets:

* **cover** — the per-round full re-sweep reference
  (``method="reference"``) vs the incremental build-once sweep
  (``method="incremental"``);
* **execute** — the columnar (vectorised, array-of-ledgers) executor on
  the DR-SC plan.

Before timing means anything the paths must agree: the bench asserts
identical cover selections (same windows, same assignments) at every
size, and — at the smallest size only, where the event engine is cheap
— per-device uptime totals within 1e-9 of the event-driven replay
(:class:`~repro.sim.replay.EventDrivenCampaign`, the executor's
oracle).

Results are persisted as ``BENCH_fleet_scale.json`` (see
``conftest.write_bench_artifact``). Tune with
``REPRO_BENCH_FLEET_SIZES=1000,10000,...``.
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
from repro.energy.states import StateGroup
from repro.experiments.reporting import Table, render_table
from repro.sim.executor import CampaignExecutor
from repro.sim.replay import EventDrivenCampaign
from repro.setcover.greedy import greedy_window_cover
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import CategoryProfile, TrafficMixture

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


def _sizes() -> tuple:
    spec = os.environ.get("REPRO_BENCH_FLEET_SIZES")
    if not spec:
        return DEFAULT_SIZES
    return tuple(int(part) for part in spec.split(",") if part.strip())


def _uptime_totals(result) -> np.ndarray:
    """Per-device (light, connected, sleep) totals, sorted by device."""
    if result.columnar is not None:
        ledgers = result.columnar.ledgers
        return np.stack(
            [
                ledgers.group_seconds(StateGroup.LIGHT_SLEEP),
                ledgers.group_seconds(StateGroup.CONNECTED),
                ledgers.group_seconds(StateGroup.SLEEP),
            ]
        )
    totals = [o.totals for o in result.outcomes]
    return np.array(
        [
            [t.light_sleep_s for t in totals],
            [t.connected_s for t in totals],
            [t.sleep_s for t in totals],
        ]
    )


def test_a9_fleet_scale_fast_path(capsys):
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
        cover_ref = greedy_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13), method="reference",
        )
        cover_ref_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cover_fast = greedy_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13), method="incremental",
        )
        cover_fast_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = CampaignExecutor().execute(fleet, plan)
        execute_s = time.perf_counter() - t0

        # Equivalence gates the timing: identical cover selections...
        assert cover_ref.windows == cover_fast.windows
        for ref_members, fast_members in zip(
            cover_ref.assignments, cover_fast.assignments
        ):
            np.testing.assert_array_equal(ref_members, fast_members)
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
                str(cover_fast.n_transmissions),
                f"{cover_ref_s:.2f}s",
                f"{cover_fast_s:.2f}s",
                f"{speedup:.1f}x",
                f"{execute_s:.2f}s",
            )
        )
        records.append(
            {
                "n_devices": n_devices,
                "n_transmissions": cover_fast.n_transmissions,
                "cover_reference_s": cover_ref_s,
                "cover_incremental_s": cover_fast_s,
                "cover_speedup": speedup,
                "execute_s": execute_s,
            }
        )

    path = write_bench_artifact(
        "fleet_scale",
        {
            "benchmark": "a9_fleet_scale",
            "mixture": FLEET_SCALE_MIXTURE.name,
            "payload_bytes": 1_000_000,
            "results": records,
        },
    )
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
                    "execute",
                ),
                rows=tuple(rows),
                notes=(
                    "Cover selections are asserted identical at every "
                    "size and per-device uptime totals match the "
                    "event-driven replay at the smallest size before "
                    f"timing is reported; artifact written to {path}.",
                ),
            )
        ),
    )
